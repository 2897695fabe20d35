package rattd

import (
	"strings"
	"testing"

	"saferatt/internal/core"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
	"saferatt/internal/transport"
	"saferatt/internal/verifier"
)

// stacks drives the same report sequences through both verifier
// stacks — the simulated verifier.Verifier and a Server on an
// in-process transport — so a rule of the verification core is tested
// once, against the Reason it must produce, rather than once per stack.
type stacks struct {
	t     *testing.T
	image []byte
	tr    *transport.Local
	prv   *Prover
	sim   *verifier.Verifier
	srv   *Server
	inbox []transport.Msg // what the server sent the prover
	logs  []string        // the reason of each decision the server logged
}

func newStacks(t *testing.T) *stacks {
	t.Helper()
	h := &stacks{t: t, image: GoldenImage(7, testMem, testBlock), tr: transport.NewLocal()}
	var err error
	h.srv, err = Serve(h.tr, Config{Ref: h.image, BlockSize: testBlock, Logf: func(format string, args ...any) {
		h.logs = append(h.logs, args[len(args)-1].(string))
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.srv.Close)
	h.enter("prv-x")
	return h
}

// enter makes name the prover the harness speaks as: a prover neither
// stack has seen (a fresh sim Verifier, a new name to the Server). The
// Server itself, and so everything it has derived from the fleet key,
// stays.
func (h *stacks) enter(name string) {
	h.t.Helper()
	var err error
	if h.prv, err = NewProver(name, DefaultKey, h.image, testBlock); err != nil {
		h.t.Fatal(err)
	}
	h.sim, err = verifier.New(verifier.Config{
		// A transport of its own, with nobody else on it, swallows the
		// sim verifier's outbound messages.
		Kernel: sim.NewKernel(), Transport: transport.NewLocal(),
		Scheme:  suite.Scheme{Hash: suite.SHA256, Key: DefaultKey},
		PermKey: DefaultKey,
		Image:   verifier.ImageOf(h.image, testBlock),
	})
	if err != nil {
		h.t.Fatal(err)
	}
	// The kernel never runs, so the watchdog only supplies the seed.
	h.sim.MonitorSeED(name, SeedFor(DefaultKey, name), sim.Second, 0, 0, sim.Second)
	if err := h.tr.Bind(name, func(m transport.Msg) { h.inbox = append(h.inbox, m) }); err != nil {
		h.t.Fatal(err)
	}
}

// warm has a third prover commit every ERASMUS counter the table below
// uses, so the Server's nonce memo (and its tag cache) hold them all.
func (h *stacks) warm() {
	h.t.Helper()
	p, err := NewProver("prv-warm", DefaultKey, h.image, testBlock)
	if err != nil {
		h.t.Fatal(err)
	}
	ctrs := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 40, 41, verifier.DedupBits + 40}
	for _, c := range ctrs {
		h.srv.Ingest(p.Name, transport.KindCollection, []core.Report{selfMeasure(h.t, p, c)})
		if _, hit := h.srv.nonces.Nonce(nil, c); !hit {
			h.t.Fatalf("counter %d not memoised after a clean commit", c)
		}
	}
}

func values(reports []*core.Report) []core.Report {
	out := make([]core.Report, len(reports))
	for i, r := range reports {
		out[i] = *r
	}
	return out
}

// firstFailure is the sim stack's analogue of the server's bundle
// verdict: the first rejection among the results a bundle recorded.
func (h *stacks) firstFailure(from int) string {
	for _, res := range h.sim.Results()[from:] {
		if !res.OK {
			return res.Reason
		}
	}
	return ""
}

func (h *stacks) lastVerdict() string {
	h.t.Helper()
	m := h.inbox[len(h.inbox)-1]
	if m.Kind != transport.KindVerdict {
		h.t.Fatalf("server answered %v, want a verdict", m.Kind)
	}
	return m.Reason
}

// smart runs one challenge/response on each stack; build gets the
// stack's own nonce. With challenge false the response is unsolicited.
func (h *stacks) smart(challenge bool, build func(nonce []byte) []*core.Report) (string, string) {
	var simNonce, srvNonce []byte
	if challenge {
		simNonce = h.sim.Challenge(h.prv.Name)
		h.srv.Ingest(h.prv.Name, transport.KindHello, nil)
		srvNonce = h.inbox[len(h.inbox)-1].Nonce
	}
	from := len(h.sim.Results())
	h.sim.HandleReports(h.prv.Name, build(simNonce))
	h.srv.Ingest(h.prv.Name, transport.KindReport, values(build(srvNonce)))
	return h.firstFailure(from), h.lastVerdict()
}

func (h *stacks) collect(reports ...*core.Report) (string, string) {
	from := len(h.sim.Results())
	h.sim.HandleCollection(h.prv.Name, reports)
	h.srv.Ingest(h.prv.Name, transport.KindCollection, values(reports))
	return h.firstFailure(from), h.lastVerdict()
}

// seed ships one SeED report. SeED is non-interactive, so the verdicts
// are read where each stack keeps them: the sim's last result (earlier
// ones flag skipped counters) and the server's decision log.
func (h *stacks) seed(r *core.Report) (string, string) {
	h.sim.HandleSeedReports(h.prv.Name, []*core.Report{r})
	h.srv.Ingest(h.prv.Name, transport.KindSeedReport, []core.Report{*r})
	rs := h.sim.Results()
	return rs[len(rs)-1].Reason, h.logs[len(h.logs)-1]
}

func (h *stacks) measure(ctr uint64) *core.Report {
	h.t.Helper()
	r, err := h.prv.SelfMeasure(ctr)
	if err != nil {
		h.t.Fatal(err)
	}
	return r
}

func (h *stacks) seedReport(ctr uint64) *core.Report {
	h.t.Helper()
	r, err := h.prv.SeedReport(ctr)
	if err != nil {
		h.t.Fatal(err)
	}
	return r
}

func (h *stacks) respond(nonce []byte) []*core.Report {
	h.t.Helper()
	r, err := h.prv.Respond(nonce)
	if err != nil {
		h.t.Fatal(err)
	}
	return []*core.Report{r}
}

// tampered returns the report with one tag bit flipped.
func tampered(r *core.Report) *core.Report {
	r.Tag[0] ^= 1
	return r
}

// TestStacksAgreeOnReasons is the (protocol × rule) table of the
// verification core: each row feeds one report sequence to both stacks
// and pins the Reason both must give. Each row runs twice against one
// Server — first with its nonce memo cold, then, as a second prover,
// with every counter of the table memoised — and must draw the same
// Reason, the same verdict text and the same movement of the Server's
// counters both times: the memo is a cache of the PRF, not a rule.
func TestStacksAgreeOnReasons(t *testing.T) {
	cases := []struct {
		name string
		want verifier.Reason
		run  func(h *stacks) (string, string)
	}{
		{"smart/clean", verifier.ReasonOK, func(h *stacks) (string, string) {
			return h.smart(true, h.respond)
		}},
		{"smart/unsolicited", verifier.ReasonUnsolicited, func(h *stacks) (string, string) {
			return h.smart(false, func([]byte) []*core.Report { return h.respond([]byte("made-up")) })
		}},
		{"smart/answered twice", verifier.ReasonUnsolicited, func(h *stacks) (string, string) {
			h.smart(true, h.respond)
			return h.smart(false, func([]byte) []*core.Report { return h.respond([]byte("made-up")) })
		}},
		{"smart/empty bundle", verifier.ReasonEmptyBundle, func(h *stacks) (string, string) {
			return h.smart(true, func([]byte) []*core.Report { return nil })
		}},
		{"smart/nonce mismatch", verifier.ReasonNonceMismatch, func(h *stacks) (string, string) {
			return h.smart(true, func([]byte) []*core.Report { return h.respond([]byte("some-other-nonce")) })
		}},
		{"smart/tag mismatch", verifier.ReasonTagMismatch, func(h *stacks) (string, string) {
			return h.smart(true, func(n []byte) []*core.Report { return []*core.Report{tampered(h.respond(n)[0])} })
		}},
		{"erasmus/clean", verifier.ReasonOK, func(h *stacks) (string, string) {
			return h.collect(h.measure(1), h.measure(2), h.measure(4))
		}},
		{"erasmus/nonce not bound to counter", verifier.ReasonNonceUnbound, func(h *stacks) (string, string) {
			r := h.measure(3)
			r.Counter = 4 // an old honest measurement re-labeled
			return h.collect(r)
		}},
		{"erasmus/replay inside the window", verifier.ReasonReplay, func(h *stacks) (string, string) {
			h.collect(h.measure(5), h.measure(6))
			return h.collect(h.measure(5))
		}},
		{"erasmus/replay behind the window", verifier.ReasonReplay, func(h *stacks) (string, string) {
			h.collect(h.measure(verifier.DedupBits + 40))
			return h.collect(h.measure(40)) // never accepted, but too old to tell
		}},
		{"erasmus/late but inside the window", verifier.ReasonOK, func(h *stacks) (string, string) {
			h.collect(h.measure(verifier.DedupBits + 40))
			return h.collect(h.measure(41))
		}},
		{"erasmus/non-monotonic within a bundle", verifier.ReasonNonMonotonic, func(h *stacks) (string, string) {
			return h.collect(h.measure(8), h.measure(7))
		}},
		{"erasmus/tag mismatch", verifier.ReasonTagMismatch, func(h *stacks) (string, string) {
			return h.collect(h.measure(1), tampered(h.measure(2)))
		}},
		{"erasmus/rejected counter is not consumed", verifier.ReasonOK, func(h *stacks) (string, string) {
			h.collect(tampered(h.measure(9)))
			return h.collect(h.measure(9))
		}},
		{"seed/clean", verifier.ReasonOK, func(h *stacks) (string, string) {
			return h.seed(h.seedReport(1))
		}},
		{"seed/nonce not bound to counter", verifier.ReasonSeedNonceUnbound, func(h *stacks) (string, string) {
			r := h.seedReport(1)
			r.Counter = 2
			return h.seed(r)
		}},
		{"seed/nonce of another scheme", verifier.ReasonSeedNonceUnbound, func(h *stacks) (string, string) {
			return h.seed(h.measure(1))
		}},
		{"seed/replay", verifier.ReasonSeedReplay, func(h *stacks) (string, string) {
			h.seed(h.seedReport(3))
			return h.seed(h.seedReport(3))
		}},
		{"seed/below the watermark", verifier.ReasonSeedReplay, func(h *stacks) (string, string) {
			h.seed(h.seedReport(3))
			return h.seed(h.seedReport(2))
		}},
		{"seed/tag mismatch", verifier.ReasonTagMismatch, func(h *stacks) (string, string) {
			return h.seed(tampered(h.seedReport(1)))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newStacks(t)
			pass := func() (string, string, Counts) {
				before := h.srv.Counts()
				simGot, srvGot := tc.run(h)
				after := h.srv.Counts()
				return simGot, srvGot, Counts{
					Challenges: after.Challenges - before.Challenges,
					Accepted:   after.Accepted - before.Accepted,
					Rejected:   after.Rejected - before.Rejected,
					Replays:    after.Replays - before.Replays,
				}
			}
			simGot, srvGot, moved := pass()
			if simGot != tc.want.String() {
				t.Errorf("Verifier: %q, want %q", simGot, tc.want)
			}
			if srvGot != tc.want.String() {
				t.Errorf("Server: %q, want %q", srvGot, tc.want)
			}
			h.warm()
			h.enter("prv-y")
			simWarm, srvWarm, movedWarm := pass()
			if simWarm != simGot || srvWarm != srvGot {
				t.Errorf("memo warm: Verifier %q, Server %q; cold: %q, %q", simWarm, srvWarm, simGot, srvGot)
			}
			if movedWarm != moved {
				t.Errorf("memo warm: counts moved by %+v, cold by %+v", movedWarm, moved)
			}
		})
	}
}

// TestOneOutcomePerExchange pins the unit the Server's counters count
// in, on the handlers' paths and on the path that refuses a bundle whole
// (a malformed image id never reaches a handler): a SMART response is one
// outcome however many rounds it carries, a collection or a SeED bundle
// one outcome a report. The malformed-id path used to count a three-round
// response three times.
func TestOneOutcomePerExchange(t *testing.T) {
	h := newStacks(t)
	three := values([]*core.Report{h.measure(1), h.measure(2), h.measure(3)})
	for _, tc := range []struct {
		kind  transport.Kind
		image string
		want  uint64
	}{
		{transport.KindReport, "", 1}, // judged by handleReport: unsolicited
		{transport.KindReport, "x@v", 1},
		{transport.KindCollection, "", 3},
		{transport.KindCollection, "x@v", 3},
		{transport.KindSeedReport, "", 3},
		{transport.KindSeedReport, "x@v", 3},
	} {
		before := h.srv.Counts()
		h.srv.IngestImage(h.prv.Name, tc.kind, tc.image, three)
		after := h.srv.Counts()
		if got := after.Accepted + after.Rejected - before.Accepted - before.Rejected; got != tc.want {
			t.Errorf("%v under image id %q: %d outcomes counted for 3 reports, want %d", tc.kind, tc.image, got, tc.want)
		}
	}
}

// TestHostileGeometryIsAnErrorVerdict covers a report whose geometry
// fields — any int32 the codec will carry — disagree with the image:
// both stacks answer with an error verdict and neither divides or
// indexes by the wire's numbers. (Verifier.CheckTag used to divide by
// the report's BlockSize.) The daemon serves whole-image reports only,
// so it turns a region away before looking at its bounds.
func TestHostileGeometryIsAnErrorVerdict(t *testing.T) {
	cases := []struct {
		name    string
		mangle  func(r *core.Report)
		wantSrv verifier.Reason
	}{
		{"block size 0", func(r *core.Report) { r.BlockSize = 0 }, verifier.ReasonError},
		{"block size 0, no blocks", func(r *core.Report) { r.BlockSize, r.NumBlocks = 0, 0 }, verifier.ReasonError},
		{"negative block size", func(r *core.Report) { r.BlockSize = -testBlock }, verifier.ReasonError},
		{"both negative", func(r *core.Report) { r.BlockSize, r.NumBlocks = -testBlock, -testMem/testBlock }, verifier.ReasonError},
		{"mismatched block count", func(r *core.Report) { r.NumBlocks++ }, verifier.ReasonError},
		{"swapped geometry", func(r *core.Report) { r.BlockSize, r.NumBlocks = r.NumBlocks, r.BlockSize }, verifier.ReasonError},
		{"region past the end", func(r *core.Report) { r.RegionStart, r.RegionCount = 10, testMem/testBlock-9 }, verifier.ReasonRegionUnserved},
		{"negative region start", func(r *core.Report) { r.RegionStart, r.RegionCount = -1, 2 }, verifier.ReasonRegionUnserved},
		{"huge region", func(r *core.Report) { r.RegionStart, r.RegionCount = 1, 1<<31-1 }, verifier.ReasonRegionUnserved},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newStacks(t)
			for _, incremental := range []bool{false, true} {
				simGot, srvGot := h.smart(true, func(n []byte) []*core.Report {
					r := h.respond(n)[0]
					r.Incremental = incremental
					tc.mangle(r)
					return []*core.Report{r}
				})
				if !strings.HasPrefix(simGot, verifier.ReasonError.String()+": ") {
					t.Errorf("Verifier (incremental=%v): %q, want a verification error", incremental, simGot)
				}
				if !strings.HasPrefix(srvGot, tc.wantSrv.String()) {
					t.Errorf("Server (incremental=%v): %q, want %q", incremental, srvGot, tc.wantSrv)
				}
			}
			if c := h.srv.Counts(); c.Accepted != 0 || c.Rejected != 2 {
				t.Errorf("server counts %+v, want 2 rejected", c)
			}
		})
	}
}
