package rattd

import (
	"testing"
	"time"

	"saferatt/internal/channel"
	"saferatt/internal/core"
	"saferatt/internal/sim"
	"saferatt/internal/transport"
)

const (
	testMem   = 4096
	testBlock = 256
)

// daemonWorld hosts a Server plus a prover-side transport under either
// backend.
type daemonWorld struct {
	srv    *Server
	tr     transport.Transport // prover-side transport
	settle func()
	close  func()
}

func simDaemonWorld(t *testing.T) *daemonWorld {
	t.Helper()
	k := sim.NewKernel()
	link := channel.New(channel.Config{Kernel: k, Latency: sim.Millisecond, Seed: 5})
	tr := transport.NewSim(link)
	s, err := Serve(tr, Config{Ref: GoldenImage(7, testMem, testBlock), BlockSize: testBlock})
	if err != nil {
		t.Fatal(err)
	}
	return &daemonWorld{srv: s, tr: tr, settle: func() { k.Run() }, close: func() { s.Close() }}
}

func netDaemonWorld(t *testing.T) *daemonWorld {
	t.Helper()
	lis, err := transport.Listen(transport.NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Serve(lis, Config{Ref: GoldenImage(7, testMem, testBlock), BlockSize: testBlock})
	if err != nil {
		lis.Close()
		t.Fatal(err)
	}
	cli, err := transport.Dial(lis.Addr().String(), transport.NetConfig{})
	if err != nil {
		lis.Close()
		t.Fatal(err)
	}
	return &daemonWorld{
		srv:    s,
		tr:     cli,
		settle: func() { time.Sleep(2 * time.Millisecond) },
		close:  func() { s.Close(); cli.Close(); lis.Close() },
	}
}

// proverBox binds a prover endpoint and records everything it receives.
type proverBox struct {
	w    *daemonWorld
	name string
	msgs chan transport.Msg
}

func newProverBox(t *testing.T, w *daemonWorld, name string) *proverBox {
	t.Helper()
	b := &proverBox{w: w, name: name, msgs: make(chan transport.Msg, 32)}
	if err := w.tr.Bind(name, func(m transport.Msg) { b.msgs <- m }); err != nil {
		t.Fatal(err)
	}
	return b
}

func (b *proverBox) await(t *testing.T, kind transport.Kind) transport.Msg {
	t.Helper()
	for i := 0; i < 2000; i++ {
		select {
		case m := <-b.msgs:
			if m.Kind == kind {
				return m
			}
		default:
			b.w.settle()
		}
	}
	t.Fatalf("%s: no %v arrived", b.name, kind)
	return transport.Msg{}
}

func (b *proverBox) send(t *testing.T, m transport.Msg) {
	t.Helper()
	m.From = b.name
	m.To = "rattd"
	if err := b.w.tr.Send(m); err != nil {
		t.Fatal(err)
	}
}

// runDaemonSuite is the daemon's protocol suite, run once over the
// simulated link and once over a loopback socket (TestDaemonOverSim,
// TestDaemonOverNet; raced in CI with the e2e fleet): a SMART exchange,
// an ERASMUS collection and its replay, a SeED push, and the rejects.
func runDaemonSuite(t *testing.T, mk func(t *testing.T) *daemonWorld) {
	newTestProver := func(t *testing.T, name string) *Prover {
		p, err := NewProver(name, DefaultKey, GoldenImage(7, testMem, testBlock), testBlock)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	t.Run("SMARTRound", func(t *testing.T) {
		w := mk(t)
		defer w.close()
		box := newProverBox(t, w, "prv-a")
		prv := newTestProver(t, "prv-a")
		box.send(t, transport.Msg{Kind: transport.KindHello})
		ch := box.await(t, transport.KindChallenge)
		rep, err := prv.Respond(ch.Nonce)
		if err != nil {
			t.Fatal(err)
		}
		box.send(t, transport.Msg{Kind: transport.KindReport, Reports: []*core.Report{rep}})
		v := box.await(t, transport.KindVerdict)
		if !v.OK {
			t.Fatalf("clean prover rejected: %s", v.Reason)
		}
		if c := w.srv.Counts(); c.Accepted != 1 || c.Rejected != 0 || c.Challenges != 1 {
			t.Fatalf("counts: %+v", c)
		}
	})

	t.Run("SMARTDetectsInfection", func(t *testing.T) {
		w := mk(t)
		defer w.close()
		box := newProverBox(t, w, "prv-b")
		prv := newTestProver(t, "prv-b")
		prv.Image[3*testBlock+5] ^= 0xFF // infected block
		box.send(t, transport.Msg{Kind: transport.KindHello})
		ch := box.await(t, transport.KindChallenge)
		rep, err := prv.Respond(ch.Nonce)
		if err != nil {
			t.Fatal(err)
		}
		box.send(t, transport.Msg{Kind: transport.KindReport, Reports: []*core.Report{rep}})
		if v := box.await(t, transport.KindVerdict); v.OK {
			t.Fatal("infected prover accepted")
		}
	})

	t.Run("SMARTWrongNonce", func(t *testing.T) {
		w := mk(t)
		defer w.close()
		box := newProverBox(t, w, "prv-c")
		prv := newTestProver(t, "prv-c")
		box.send(t, transport.Msg{Kind: transport.KindHello})
		box.await(t, transport.KindChallenge)
		rep, err := prv.Respond([]byte("not-the-challenge"))
		if err != nil {
			t.Fatal(err)
		}
		box.send(t, transport.Msg{Kind: transport.KindReport, Reports: []*core.Report{rep}})
		if v := box.await(t, transport.KindVerdict); v.OK {
			t.Fatal("stale nonce accepted")
		}
	})

	t.Run("CollectionAndReplay", func(t *testing.T) {
		w := mk(t)
		defer w.close()
		box := newProverBox(t, w, "prv-d")
		prv := newTestProver(t, "prv-d")
		var history []*core.Report
		for ctr := uint64(1); ctr <= 3; ctr++ {
			r, err := prv.SelfMeasure(ctr)
			if err != nil {
				t.Fatal(err)
			}
			history = append(history, r)
		}
		box.send(t, transport.Msg{Kind: transport.KindCollection, Reports: history})
		if v := box.await(t, transport.KindVerdict); !v.OK {
			t.Fatalf("clean collection rejected: %s", v.Reason)
		}
		before := w.srv.Counts()

		// The replay-attack regression (§3.3 freshness): the same bundle
		// again, as a NEW request (fresh ReqID, so transport-level dedup
		// does not absorb it). Every duplicate report must be rejected —
		// exactly once each — and nothing newly accepted.
		box.send(t, transport.Msg{Kind: transport.KindCollection, Reports: history})
		if v := box.await(t, transport.KindVerdict); v.OK {
			t.Fatal("replayed collection accepted")
		}
		after := w.srv.Counts()
		if after.Accepted != before.Accepted {
			t.Fatalf("replay increased accepted: %+v -> %+v", before, after)
		}
		if got := after.Replays - before.Replays; got != 3 {
			t.Fatalf("replayed counters rejected %d times, want 3", got)
		}
		if got := after.Rejected - before.Rejected; got != 3 {
			t.Fatalf("rejections %d, want 3 (exactly once per duplicate)", got)
		}

		// Fresh counters from the same prover keep working.
		r4, err := prv.SelfMeasure(4)
		if err != nil {
			t.Fatal(err)
		}
		box.send(t, transport.Msg{Kind: transport.KindCollection, Reports: []*core.Report{r4}})
		if v := box.await(t, transport.KindVerdict); !v.OK {
			t.Fatalf("fresh counter rejected after replay: %s", v.Reason)
		}
	})

	t.Run("SeedIngestion", func(t *testing.T) {
		w := mk(t)
		defer w.close()
		box := newProverBox(t, w, "prv-e")
		prv := newTestProver(t, "prv-e")
		for ctr := uint64(1); ctr <= 3; ctr++ {
			r, err := prv.SeedReport(ctr)
			if err != nil {
				t.Fatal(err)
			}
			box.send(t, transport.Msg{Kind: transport.KindSeedReport, Reports: []*core.Report{r}})
		}
		waitCounts(t, w, func(c Counts) bool { return c.Accepted == 3 })

		// Replay of counter 2 is rejected; a prover cannot reuse another
		// prover's seed either.
		r2, err := prv.SeedReport(2)
		if err != nil {
			t.Fatal(err)
		}
		box.send(t, transport.Msg{Kind: transport.KindSeedReport, Reports: []*core.Report{r2}})
		waitCounts(t, w, func(c Counts) bool { return c.Replays == 1 })

		other := newProverBox(t, w, "prv-f")
		other.send(t, transport.Msg{Kind: transport.KindSeedReport, Reports: []*core.Report{r2}})
		waitCounts(t, w, func(c Counts) bool { return c.Rejected == 2 })
		if c := w.srv.Counts(); c.Accepted != 3 {
			t.Fatalf("cross-prover seed report accepted: %+v", c)
		}
	})
}

func waitCounts(t *testing.T, w *daemonWorld, cond func(Counts) bool) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if cond(w.srv.Counts()) {
			return
		}
		w.settle()
	}
	t.Fatalf("counts never converged: %+v", w.srv.Counts())
}

func TestDaemonOverSim(t *testing.T) { runDaemonSuite(t, simDaemonWorld) }
func TestDaemonOverNet(t *testing.T) { runDaemonSuite(t, netDaemonWorld) }
