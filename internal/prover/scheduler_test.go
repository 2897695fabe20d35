package prover

import (
	"testing"

	"saferatt/internal/core"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
	"saferatt/internal/transport"
)

func TestErasmusAccumulatesHistory(t *testing.T) {
	r := newRig(t, 4096, 256, 0)
	e, err := NewErasmus("prv", r.dev, nil, core.Preset(core.NoLock, suite.SHA256), sim.Second, 5)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	r.k.RunUntil(sim.Time(10*sim.Second) + 1)
	e.Stop()
	r.k.Run()
	h := e.History()
	if len(h) != 10 {
		t.Fatalf("history has %d reports, want 10", len(h))
	}
	for i, rep := range h {
		if rep.Counter != uint64(i+1) {
			t.Fatalf("report %d counter %d", i, rep.Counter)
		}
		// Self-derived nonce binds the counter.
		want := core.PRF(r.dev.AttestationKey, "erasmus-nonce", rep.Counter)
		if string(rep.Nonce) != string(want) {
			t.Fatalf("report %d nonce not PRF-derived", i)
		}
	}
	// Cadence: t_s gaps ≈ 1s.
	for i := 1; i < len(h); i++ {
		gap := h[i].TS.Sub(h[i-1].TS)
		if gap < 900*sim.Millisecond || gap > 1100*sim.Millisecond {
			t.Fatalf("gap %d = %v, want ~1s", i, gap)
		}
	}
}

func TestErasmusHistoryCapEvictsOldest(t *testing.T) {
	r := newRig(t, 2048, 256, 0)
	e, _ := NewErasmus("prv", r.dev, nil, core.Preset(core.NoLock, suite.SHA256), sim.Second, 5)
	e.HistoryCap = 3
	e.Start()
	r.k.RunUntil(sim.Time(8*sim.Second) + 1)
	e.Stop()
	r.k.Run()
	h := e.History()
	if len(h) != 3 {
		t.Fatalf("history has %d, want 3", len(h))
	}
	if h[0].Counter != 6 || h[2].Counter != 8 {
		t.Fatalf("history counters %d..%d, want 6..8", h[0].Counter, h[2].Counter)
	}
}

func TestErasmusContextAwareDefers(t *testing.T) {
	r := newRig(t, 4096, 256, 0)
	busy := true
	e, _ := NewErasmus("prv", r.dev, nil, core.Preset(core.NoLock, suite.SHA256), sim.Second, 5)
	e.ContextAware = true
	e.Busy = func() bool { return busy }
	e.RetryDelay = 100 * sim.Millisecond
	e.Start()
	// Device is "critical" until t=2.55s.
	r.k.At(sim.Time(2550*sim.Millisecond), func() { busy = false })
	r.k.RunUntil(sim.Time(3 * sim.Second))
	e.Stop()
	r.k.Run()
	if e.Deferred == 0 {
		t.Fatal("no deferrals recorded")
	}
	h := e.History()
	if len(h) == 0 {
		t.Fatal("no measurements after busy period ended")
	}
	if h[0].TS < sim.Time(2550*sim.Millisecond) {
		t.Fatalf("measurement at %v during critical period", h[0].TS)
	}
}

func TestErasmusSkipsWhenMeasurementStillRunning(t *testing.T) {
	// Period shorter than one measurement: ticks must be skipped, not
	// queued.
	r := newRig(t, 1<<20, 4096, 0) // 1 MiB: MP ~7.3ms
	e, _ := NewErasmus("prv", r.dev, nil, core.Preset(core.NoLock, suite.SHA256), sim.Millisecond, 5)
	e.Start()
	r.k.RunUntil(sim.Time(50 * sim.Millisecond))
	e.Stop()
	r.k.Run()
	if e.Skipped == 0 {
		t.Fatal("expected skipped ticks with TM < measurement time")
	}
	if len(e.History()) == 0 {
		t.Fatal("no measurements completed")
	}
}

func TestErasmusCollectAndHybridOnDemand(t *testing.T) {
	r := newRig(t, 2048, 256, sim.Millisecond)
	e, _ := NewErasmus("prv", r.dev, r.tr, core.Preset(core.NoLock, suite.SHA256), sim.Second, 5)
	e.OnDemand = true
	e.Start()

	var collected []*core.Report
	var onDemand []*core.Report
	r.tr.Bind("verifier", func(m transport.Msg) {
		switch m.Kind {
		case transport.KindCollection:
			collected = m.Reports
		case transport.KindReport:
			onDemand = m.Reports
		}
	})

	r.k.At(sim.Time(3500*sim.Millisecond), func() {
		r.tr.Send(transport.Msg{From: "verifier", To: "prv", Kind: transport.KindCollect})
	})
	r.k.At(sim.Time(4200*sim.Millisecond), func() {
		r.tr.Send(transport.Msg{From: "verifier", To: "prv", Kind: transport.KindChallenge, Nonce: []byte("fresh-nonce")})
	})
	r.k.RunUntil(sim.Time(6 * sim.Second))
	e.Stop()
	r.k.Run()

	if len(collected) != 3 {
		t.Fatalf("collected %d reports, want 3 (t=1,2,3s)", len(collected))
	}
	if len(onDemand) != 1 {
		t.Fatalf("on-demand reports = %d, want 1", len(onDemand))
	}
	if string(onDemand[0].Nonce) != "fresh-nonce" {
		t.Fatal("on-demand report not bound to challenge nonce")
	}
}

func TestSeEDProverFiresOnSchedule(t *testing.T) {
	r := newRig(t, 2048, 256, 0)
	seed := []byte("s33d")
	p, err := NewSeED("prv", r.dev, r.tr, core.Preset(core.NoLock, suite.SHA256), seed, sim.Second, 500*sim.Millisecond, 5)
	if err != nil {
		t.Fatal(err)
	}
	var got []*core.Report
	r.tr.Bind("verifier", func(m transport.Msg) {
		if m.Kind == transport.KindSeedReport {
			got = append(got, m.Reports...)
		}
	})
	p.Start()
	r.k.RunUntil(sim.Time(10 * sim.Second))
	p.Stop()
	r.k.Run()

	if len(got) < 5 {
		t.Fatalf("only %d reports in 10s with ~1-1.5s period", len(got))
	}
	if p.Sent != len(got) {
		t.Fatalf("Sent=%d but received %d", p.Sent, len(got))
	}
	for i, rep := range got {
		if rep.Counter != uint64(i+1) {
			t.Fatalf("report %d counter %d", i, rep.Counter)
		}
		// The schedule is relative to the previous *completion*, so
		// trigger i shifts by accumulated measurement time; the nonce
		// is what binds a report to its place in it.
		if string(rep.Nonce) != string(core.PRF(seed, "seed-nonce", rep.Counter)) {
			t.Fatalf("report %d nonce not seed-derived", i)
		}
	}
}

func TestSeEDOnTriggerLeak(t *testing.T) {
	r := newRig(t, 2048, 256, 0)
	r.tr.Bind("verifier", func(transport.Msg) {})
	p, _ := NewSeED("prv", r.dev, r.tr, core.Preset(core.NoLock, suite.SHA256), []byte("s"), sim.Second, 0, 5)
	var leaks []sim.Time
	p.OnTrigger = func(ctr uint64, at sim.Time) { leaks = append(leaks, at) }
	p.Start()
	r.k.RunUntil(sim.Time(3500 * sim.Millisecond))
	p.Stop()
	r.k.Run()
	if len(leaks) < 2 {
		t.Fatalf("leak hook fired %d times", len(leaks))
	}
	if p.Counter() == 0 {
		t.Fatal("no triggers fired")
	}
}

// TestSeEDSentSlicesOutliveLaterRuns keeps every report slice the SeED
// prover hands its transport, as a queueing transport would, and checks
// them only after later measurements ran on the same session: each
// still holds its own run's report.
func TestSeEDSentSlicesOutliveLaterRuns(t *testing.T) {
	r := newRig(t, 2048, 256, 0)
	p, err := NewSeED("prv", r.dev, r.tr, core.Preset(core.NoLock, suite.SHA256), []byte("s33d"), sim.Second, 500*sim.Millisecond, 5)
	if err != nil {
		t.Fatal(err)
	}
	var sent [][]*core.Report
	r.tr.Bind("verifier", func(m transport.Msg) { sent = append(sent, m.Reports) })
	p.Start()
	r.k.RunUntil(sim.Time(10 * sim.Second))
	p.Stop()
	r.k.Run()
	if len(sent) < 5 {
		t.Fatalf("only %d bundles sent", len(sent))
	}
	for i, rr := range sent {
		if len(rr) != 1 || rr[0].Counter != uint64(i+1) {
			t.Fatalf("bundle %d holds %d reports, first counter %d: a later run overwrote it", i, len(rr), rr[0].Counter)
		}
		if i > 0 && rr[0] == sent[i-1][0] {
			t.Fatalf("bundles %d and %d share a report", i-1, i)
		}
	}
}
