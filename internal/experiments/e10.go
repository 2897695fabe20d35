package experiments

import (
	"fmt"
	"strings"

	"saferatt/internal/core"
	"saferatt/internal/parallel"
	"saferatt/internal/prover"
	"saferatt/internal/safety"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
	"saferatt/internal/transport"
)

// E10Row quantifies §3.3's DoS claim — "Lack of interaction makes SeED
// inherently resilient to DoS attacks, which aim at exhausting Prv's
// resources and prevent it from performing its tasks" — by flooding a
// prover with attestation requests and measuring what happens to its
// safety-critical application.
type E10Row struct {
	Scheme       string // "on-demand" or "SeED"
	FloodPeriod  sim.Duration
	Served       int // measurements actually performed
	Dropped      int // flood requests discarded
	WorstLatency sim.Duration
	Missed       int // alarm deadlines missed
	CPUAttestPct float64
}

// E10Config parameterizes the flood.
type E10Config struct {
	FloodPeriods []sim.Duration // default {2s, 500ms, 100ms}
	Horizon      sim.Duration   // default 60s
	MemSize      int            // default 8 MiB (≈59ms atomic MP)
	Seed         uint64
	// Parallelism is the sweep worker count (0 = parallel.Default()).
	Parallelism int
}

func (c *E10Config) setDefaults() {
	if c.FloodPeriods == nil {
		c.FloodPeriods = []sim.Duration{2 * sim.Second, 500 * sim.Millisecond, 100 * sim.Millisecond}
	}
	if c.Horizon == 0 {
		c.Horizon = 60 * sim.Second
	}
	if c.MemSize == 0 {
		c.MemSize = 8 << 20
	}
}

// E10DoS floods an on-demand prover and a SeED prover with challenge
// traffic at increasing rates. The on-demand prover must serve (some)
// requests, burning CPU that its fire-alarm application needs; SeED
// ignores unsolicited traffic entirely and keeps its own schedule.
func E10DoS(cfg E10Config) []E10Row {
	cfg.setDefaults()
	// Two independent simulations per flood period (on-demand, SeED),
	// interleaved in the canonical row order.
	return parallel.Map(cfg.Parallelism, 2*len(cfg.FloodPeriods), func(i int) E10Row {
		return e10Point(cfg, cfg.FloodPeriods[i/2], i%2 == 1)
	})
}

func e10Point(cfg E10Config, floodPeriod sim.Duration, seedScheme bool) E10Row {
	opts := core.Preset(core.SMART, suite.SHA256) // atomic core either way
	w := NewWorld(WorldConfig{EngineConfig: EngineConfig{Seed: cfg.Seed},
		MemSize: cfg.MemSize, BlockSize: 64 << 10,
		ROMBlocks: 1, Opts: opts, Latency: sim.Millisecond})

	fa := safety.NewFireAlarm(w.Dev, safety.Config{
		Priority:     appPrio,
		SensorPeriod: 250 * sim.Millisecond,
		Deadline:     500 * sim.Millisecond,
		DataBlock:    -1,
	})
	fa.Start()
	for i := 1; i <= 10; i++ {
		fa.StartFire(sim.Time(sim.Duration(i) * cfg.Horizon / 11))
	}

	row := E10Row{FloodPeriod: floodPeriod}
	bogus := transport.Msg{From: "attacker", To: "prv", Kind: transport.KindChallenge, Nonce: []byte("flood")}

	if seedScheme {
		row.Scheme = "SeED"
		p := must(prover.NewSeED("prv", w.Dev, w.Tr, opts, []byte("dos-seed"),
			10*sim.Second, 5*sim.Second, mpPrio))
		p.Start()
		// The flood: bogus challenges. SeED has no challenge handler —
		// traffic is simply not delivered to any attestation path.
		flood := w.K.NewTicker(floodPeriod, func(sim.Time) {
			w.Tr.Send(bogus)
		})
		w.K.RunUntil(sim.Time(cfg.Horizon))
		flood.Stop()
		p.Stop()
		row.Served = int(p.Counter())
		row.Dropped = 0 // nothing to drop: requests never reach MP
		row.CPUAttestPct = attestShare(w, p.Task().Stats().Busy)
	} else {
		row.Scheme = "on-demand"
		p := must(prover.NewProver("prv", w.Dev, w.Tr, opts, mpPrio))
		flood := w.K.NewTicker(floodPeriod, func(sim.Time) {
			// The attacker forges challenge traffic; the prover cannot
			// authenticate requests (SMART-style RA has no
			// request authentication) and serves whenever idle.
			w.Tr.Send(bogus)
		})
		w.K.RunUntil(sim.Time(cfg.Horizon))
		flood.Stop()
		row.Served = p.Task().Stats().Steps
		row.Dropped = p.DroppedBusy
		row.CPUAttestPct = attestShare(w, p.Task().Stats().Busy)
	}
	fa.Stop()
	w.K.Run()
	row.WorstLatency = fa.WorstLatency()
	row.Missed = fa.MissedDeadlines()
	return row
}

func attestShare(w *World, busy sim.Duration) float64 {
	if w.K.Now() == 0 {
		return 0
	}
	return 100 * float64(busy) / float64(w.K.Now())
}

// RenderE10 prints the DoS table.
func RenderE10(rows []E10Row) string {
	var b strings.Builder
	b.WriteString("E10 (§3.3): challenge-flood DoS — on-demand RA vs SeED (8 MiB, ~59ms atomic MP)\n")
	fmt.Fprintf(&b, "%-10s %-14s %-8s %-9s %-14s %-7s %-10s\n",
		"scheme", "flood period", "served", "dropped", "worst-latency", "missed", "attest-CPU")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-14v %-8d %-9d %-14v %-7d %9.1f%%\n",
			r.Scheme, r.FloodPeriod, r.Served, r.Dropped, r.WorstLatency, r.Missed, r.CPUAttestPct)
	}
	b.WriteString("SeED ignores unsolicited traffic: its CPU share and latency are flood-invariant\n")
	return b.String()
}
