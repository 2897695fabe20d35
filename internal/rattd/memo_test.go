package rattd

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"saferatt/internal/core"
	"saferatt/internal/transport"
	"saferatt/internal/verifier"
)

// memoRig is a Server whose tag cache and nonce memo hold memoKeep
// epochs, not KeepEpochs — so ten times the bound is a few dozen
// bundles — and whose provers' inboxes all land in last.
type memoRig struct {
	t     *testing.T
	s     *Server
	tr    *transport.Local
	image []byte
	last  transport.Msg // the latest message the server sent any prover
}

const memoKeep = 4

// resizeMemo gives s, before it has ingested anything, a nonce memo of
// keep counters in place of its KeepEpochs one.
func resizeMemo(s *Server, keep int) { s.nonces = verifier.NewNonceMemo(DefaultKey, keep) }

func newMemoRig(t *testing.T) *memoRig {
	t.Helper()
	g := &memoRig{t: t, tr: transport.NewLocal(), image: GoldenImage(7, testMem, testBlock)}
	set := verifier.NewImageSet(verifier.ImageSetConfig{KeepEpochs: memoKeep})
	if _, err := set.Add(DefaultImageName, verifier.ImageOf(g.image, testBlock)); err != nil {
		t.Fatal(err)
	}
	var err error
	if g.s, err = Serve(g.tr, Config{Images: set, Stripes: 4}); err != nil {
		t.Fatal(err)
	}
	resizeMemo(g.s, memoKeep)
	t.Cleanup(g.s.Close)
	return g
}

func (g *memoRig) prover(name string) *Prover {
	g.t.Helper()
	p, err := NewProver(name, DefaultKey, g.image, testBlock)
	if err != nil {
		g.t.Fatal(err)
	}
	if err := g.tr.Bind(name, func(m transport.Msg) { g.last = m }); err != nil {
		g.t.Fatal(err)
	}
	return p
}

// collect ingests one collection and returns the verdict's reason.
func (g *memoRig) collect(p *Prover, reports ...core.Report) string {
	g.t.Helper()
	g.last = transport.Msg{}
	g.s.Ingest(p.Name, transport.KindCollection, reports)
	if g.last.Kind != transport.KindVerdict {
		g.t.Fatalf("collection from %s drew %v, want a verdict", p.Name, g.last.Kind)
	}
	return g.last.Reason
}

// TestOneShotNoncesDoNotEvictSharedTag is the regression test for the
// eviction the tag-cache bypass removes: SeED and SMART nonces never
// recur, and each one used to be published into the KeepEpochs-bounded
// expected-tag cache, pushing out an ERASMUS epoch the whole fleet
// still reports under.
func TestOneShotNoncesDoNotEvictSharedTag(t *testing.T) {
	g := newMemoRig(t)
	const warmed = 5
	a := g.prover("prv-a")
	if why := g.collect(a, selfMeasure(t, a, warmed)); why != "" {
		t.Fatalf("warming collection rejected: %s", why)
	}

	const oneShots = 10 * memoKeep
	for i := 0; i < oneShots; i++ {
		p := g.prover(fmt.Sprintf("one-shot-%02d", i))
		sr, err := p.SeedReport(uint64(1 + i))
		if err != nil {
			t.Fatal(err)
		}
		g.s.Ingest(p.Name, transport.KindSeedReport, []core.Report{*sr})

		g.s.Ingest(p.Name, transport.KindHello, nil)
		if g.last.Kind != transport.KindChallenge {
			t.Fatalf("hello %d drew %v, want a challenge", i, g.last.Kind)
		}
		resp, err := p.Respond(g.last.Nonce)
		if err != nil {
			t.Fatal(err)
		}
		g.s.Ingest(p.Name, transport.KindReport, []core.Report{*resp})
		if g.last.Kind != transport.KindVerdict || !g.last.OK {
			t.Fatalf("SMART exchange %d: %+v", i, g.last)
		}
	}
	if c := g.s.Counts(); c.Accepted != 1+2*oneShots || c.Rejected != 0 {
		t.Fatalf("counts %+v, want %d accepted and none rejected", c, 1+2*oneShots)
	}
	bs := g.s.BatchStats()
	if bs.Reports != 1+2*oneShots || bs.Computed != 1+2*oneShots {
		t.Fatalf("batch stats %+v: every one-shot verification must still count as a computed tag", bs)
	}

	b := g.prover("prv-b")
	if why := g.collect(b, selfMeasure(t, b, warmed)); why != "" {
		t.Fatalf("collection at the warmed counter rejected: %s", why)
	}
	if after := g.s.BatchStats(); after.Computed != bs.Computed || after.Reports != bs.Reports+1 {
		t.Fatalf("one-shot nonces evicted the shared epoch: batch stats %+v -> %+v", bs, after)
	}
}

// TestNonceMemoAdmitsOnlyCommittedCounters floods a server with ten
// times KeepEpochs bundles of each kind whose counters never commit and
// requires the nonce memo to come out exactly as it went in, the
// fleet's counters still hits.
func TestNonceMemoAdmitsOnlyCommittedCounters(t *testing.T) {
	g := newMemoRig(t)
	fleet := []uint64{1, 2, 3, verifier.DedupBits + 50}
	a := g.prover("prv-a")
	for _, c := range fleet {
		if why := g.collect(a, selfMeasure(t, a, c)); why != "" {
			t.Fatalf("counter %d rejected: %s", c, why)
		}
	}
	if got := g.s.nonces.Counters(); !slices.Equal(got, fleet) {
		t.Fatalf("memo holds %v after the fleet committed %v", got, fleet)
	}

	const flood = 10 * memoKeep
	floods := []struct {
		name string
		want verifier.Reason
		send func(i int) string
	}{
		{"garbage nonce", verifier.ReasonNonceUnbound, func(i int) string {
			r := selfMeasure(t, a, 1)
			r.Counter = uint64(1000 + i) // any counter at all: the nonce is not its PRF
			return g.collect(a, r)
		}},
		{"right nonce, forged tag", verifier.ReasonTagMismatch, func(i int) string {
			r := selfMeasure(t, a, uint64(2000+i))
			r.Tag[0] ^= 1
			return g.collect(a, r)
		}},
		{"right nonce, forged tag, spoofed name", verifier.ReasonTagMismatch, func(i int) string {
			p := g.prover(fmt.Sprintf("spoof-%02d", i))
			r := selfMeasure(t, p, uint64(3000+i))
			r.Tag[0] ^= 1
			return g.collect(p, r)
		}},
		{"replay of a committed counter", verifier.ReasonReplay, func(i int) string {
			return g.collect(a, selfMeasure(t, a, fleet[i%len(fleet)]))
		}},
		{"replay behind the window", verifier.ReasonReplay, func(i int) string {
			// Never accepted by anyone, but too far behind prv-a's
			// watermark to tell: a valid report that does not commit.
			return g.collect(a, selfMeasure(t, a, uint64(4+i)))
		}},
	}
	accepted := g.s.Counts().Accepted
	for _, f := range floods {
		for i := 0; i < flood; i++ {
			if why := f.send(i); why != f.want.String() {
				t.Fatalf("%s %d: %q, want %q", f.name, i, why, f.want)
			}
		}
		if got := g.s.nonces.Counters(); !slices.Equal(got, fleet) {
			t.Fatalf("%s: memo now holds %v, want it unchanged at %v", f.name, got, fleet)
		}
	}
	if c := g.s.Counts(); c.Accepted != accepted {
		t.Fatalf("a flood bundle was accepted: %+v", c)
	}

	// The next legitimate bundle — another prover, the fleet's counters
	// — is served from the memo.
	for _, c := range fleet {
		if _, hit := g.s.nonces.Nonce(nil, c); !hit {
			t.Fatalf("fleet counter %d evicted by the flood", c)
		}
	}
	b := g.prover("prv-b")
	var bundle []core.Report
	for _, c := range fleet {
		bundle = append(bundle, selfMeasure(t, b, c))
	}
	if why := g.collect(b, bundle...); why != "" {
		t.Fatalf("legitimate bundle after the flood rejected: %s", why)
	}
}

// TestConcurrentIngestAdvancingCounter races the memo's copy-on-write
// publication against its lock-free readers: 8 ingest goroutines each
// walk the whole fleet once per counter, unsynchronised, so while one
// worker commits (and admits) counter c+1 the others are still reading
// c — with a bound small enough that admissions also evict. Hostile
// bundles ride along. Every report is counted once, and each (prover,
// counter) is accepted exactly once however many workers submit it.
func TestConcurrentIngestAdvancingCounter(t *testing.T) {
	const (
		workers  = 8
		provers  = 200 // the fleet's counter advances every 200 bundles per worker
		counters = 12
		hostile  = 25 // one garbage-nonce and one forged bundle per this many
	)
	s := localServer(t, Config{Stripes: 8})
	resizeMemo(s, memoKeep)
	image := GoldenImage(7, testMem, testBlock)
	tmpl, err := NewProver("tmpl", DefaultKey, image, testBlock)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, provers)
	for i := range names {
		names[i] = fmt.Sprintf("prv%05d", i)
	}
	// The fleet shares one key, so one report per counter serves every
	// prover; the slices are only read.
	clean := make([][]core.Report, counters)
	forged := make([][]core.Report, counters)
	for c := range clean {
		clean[c] = []core.Report{selfMeasure(t, tmpl, uint64(1+c))}
		f := selfMeasure(t, tmpl, uint64(1+c))
		f.Tag[0] ^= 1
		forged[c] = []core.Report{f}
	}

	var sent atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 99))
			n := uint64(0)
			for c := 0; c < counters; c++ {
				for i := 0; i < provers; i++ {
					name := names[(i+w*provers/workers)%provers]
					s.Ingest(name, transport.KindCollection, clean[c])
					n++
					if i%hostile == 0 {
						garbage := clean[c][0]
						garbage.Counter = rng.Uint64() | 1<<40
						s.Ingest(name, transport.KindCollection, []core.Report{garbage})
						s.Ingest(fmt.Sprintf("spoof-%d-%d-%d", w, c, i), transport.KindCollection, forged[c])
						n += 2
					}
				}
			}
			sent.Add(n)
		}(w)
	}
	wg.Wait()

	c := s.Counts()
	if got, want := c.Accepted+c.Rejected, sent.Load(); got != want {
		t.Fatalf("counts not conserved: accepted %d + rejected %d = %d, delivered %d", c.Accepted, c.Rejected, got, want)
	}
	if got, want := c.Accepted, uint64(provers*counters); got != want {
		t.Fatalf("accepted %d, want each (prover, counter) exactly once = %d", got, want)
	}
	if got, want := c.Replays, uint64((workers-1)*provers*counters); got != want {
		t.Fatalf("replays %d, want %d", got, want)
	}
	memo := s.nonces.Counters()
	if len(memo) > memoKeep {
		t.Fatalf("memo holds %d counters, bound %d", len(memo), memoKeep)
	}
	for _, ctr := range memo {
		if ctr < 1 || ctr > counters {
			t.Fatalf("memo holds counter %d, which no accepted report carried", ctr)
		}
		got, _ := s.nonces.Nonce(nil, ctr)
		if want := core.AppendErasmusNonce(nil, DefaultKey, ctr); !slices.Equal(got, want) {
			t.Fatalf("counter %d memoised as %x, PRF gives %x", ctr, got, want)
		}
	}
}

// TestNonceMemoMissOverhead enforces "a flood of chosen counters costs
// what it costs today" on the path the daemon runs: verifier.Judge on a
// one-report ERASMUS bundle whose counter misses a full memo
// (Expect.Memo, which derives the nonce on the miss) must stay within
// 1.10x of Judge handed the nonce derived directly (Expect.Nonces), arms
// interleaved round by round, as in TestServerVerifyMultiImageOverhead.
func TestNonceMemoMissOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts timing; the gate runs in the non-race suite")
	}
	const (
		keep   = KeepEpochs
		rounds = 25
		perArm = 4096
	)
	memo := verifier.NewNonceMemo(DefaultKey, keep)
	for c := uint64(1); c <= keep; c++ {
		memo.Admit(c)
	}
	var fresh verifier.Freshness
	// Right length, the PRF of no counter: every report is refused at
	// the nonce, before the tag source (which neither arm has).
	bundle := []core.Report{{Nonce: make([]byte, 32)}}
	viaMemo := verifier.Expect{Memo: memo}
	direct := verifier.Expect{Nonces: [][]byte{nil}}
	var why []verifier.Reason
	var unbound, missed int
	judge := func(x *verifier.Expect) {
		var first verifier.Reason
		why, first, _ = verifier.Judge(why[:0], verifier.ERASMUS, &fresh, bundle, x)
		if first == verifier.ReasonNonceUnbound {
			unbound++
		}
	}
	// Round n walks counters nobody admitted: n<<33 onwards.
	memoArm := func(round int) {
		for i := uint64(0); i < perArm; i++ {
			bundle[0].Counter = uint64(round)<<33 + i
			judge(&viaMemo)
			if viaMemo.Missed {
				missed++
			}
		}
	}
	directArm := func(round int) {
		for i := uint64(0); i < perArm; i++ {
			bundle[0].Counter = uint64(round)<<33 + i
			direct.Nonces[0] = core.AppendErasmusNonce(direct.Nonces[0][:0], DefaultKey, bundle[0].Counter)
			judge(&direct)
		}
	}
	directArm(1) // warm the MAC pool and the scratch
	memoArm(1)
	unbound, missed = 0, 0
	ratio, directNS, memoNS := interleavedRatio(2, 2+rounds, directArm, memoArm)
	if unbound != 2*rounds*perArm {
		t.Fatalf("%d of %d bundles drew ReasonNonceUnbound", unbound, 2*rounds*perArm)
	}
	if missed != rounds*perArm {
		t.Fatalf("%d of %d memo-arm bundles missed the memo", missed, rounds*perArm)
	}
	ops := float64(rounds * perArm)
	t.Logf("memo miss %.0f ns/bundle, direct PRF %.0f ns/bundle (median round %.3fx)",
		float64(memoNS)/ops, float64(directNS)/ops, ratio)
	if ratio > 1.10 {
		t.Fatalf("a memo miss is %.3fx the direct derivation, budget 1.10x", ratio)
	}
}
