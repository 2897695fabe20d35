package experiments

import (
	"fmt"
	"strings"

	"saferatt/internal/core"
	"saferatt/internal/malware"
	"saferatt/internal/parallel"
	"saferatt/internal/prover"
	"saferatt/internal/qoa"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
)

// E7Row is one point of the Figure 5 / QoA reproduction: transient
// malware with a given dwell time against ERASMUS self-measurement
// with period T_M, detection measured by actually verifying the
// collected history.
type E7Row struct {
	TM       sim.Duration
	Dwell    sim.Duration
	Trials   int
	Detected int
	MCRate   float64
	Analytic float64 // min(1, d/T_M)
	CI       float64
}

// E7Config parameterizes the sweep.
type E7Config struct {
	TM     sim.Duration   // default 10s
	Dwells []sim.Duration // default 1..12s
	Trials int            // default 100
	Seed   uint64
	// Parallelism is the trial worker count (0 = parallel.Default()).
	Parallelism int
}

func (c *E7Config) setDefaults() {
	if c.TM == 0 {
		c.TM = 10 * sim.Second
	}
	if c.Dwells == nil {
		for _, s := range []int{1, 2, 4, 6, 8, 10, 12} {
			c.Dwells = append(c.Dwells, sim.Duration(s)*sim.Second)
		}
	}
	if c.Trials == 0 {
		c.Trials = 100
	}
}

// E7QoA runs the device-level QoA experiment: per trial, an ERASMUS
// prover self-measures every T_M while transient malware occupies a
// block for a dwell window at a random phase (it cannot see the
// schedule); the collected history is then verified report by report.
func E7QoA(cfg E7Config) []E7Row {
	cfg.setDefaults()
	rows := make([]E7Row, 0, len(cfg.Dwells))
	for _, d := range cfg.Dwells {
		rows = append(rows, e7Point(cfg, d))
	}
	return rows
}

func e7Point(cfg E7Config, dwell sim.Duration) E7Row {
	const (
		blocks    = 16
		blockSize = 256
	)
	// The dwell phase is the trial's only random draw. It comes from a
	// per-trial RNG derived from (Seed^dwell, i) — not a sweep-wide
	// stream — so the draw is independent of trial execution order and
	// the sweep parallelizes deterministically.
	detected := parallel.Sum(cfg.Parallelism, cfg.Trials, func(i int) int {
		rng := parallel.TrialRNG(cfg.Seed^uint64(dwell)^0xe7, i)
		opts := core.Preset(core.SMART, suite.SHA256) // atomic core, as in ERASMUS
		w := NewWorld(WorldConfig{EngineConfig: EngineConfig{Seed: uint64(i) + cfg.Seed, NoTrace: true},
			MemSize: blocks * blockSize, BlockSize: blockSize, ROMBlocks: 1, Opts: opts})
		e := must(prover.NewErasmus("prv", w.Dev, nil, opts, cfg.TM, mpPrio))
		e.HistoryCap = 1024
		e.Start()

		// Random-phase dwell window inside the second measurement
		// period (so at least one measurement precedes and follows).
		mw := malware.NewTransient(w.Dev, malwarePrio)
		phase := sim.Duration(rng.Int64N(int64(cfg.TM)))
		t0 := sim.Time(cfg.TM).Add(phase)
		mw.ScheduleDwell(1+i%(blocks-1), t0, t0.Add(dwell))

		horizon := sim.Time(3*cfg.TM) + sim.Time(dwell)
		w.K.RunUntil(horizon)
		e.Stop()
		w.K.Run()

		for _, rep := range e.History() {
			if !w.VerifyLocally(rep, false) {
				return 1
			}
		}
		return 0
	})
	analytic := qoa.TransientDetectProb(dwell, cfg.TM)
	return E7Row{
		TM: cfg.TM, Dwell: dwell, Trials: cfg.Trials, Detected: detected,
		MCRate:   float64(detected) / float64(cfg.Trials),
		Analytic: analytic,
		CI:       qoa.BinomialCI(analytic, cfg.Trials),
	}
}

// RenderE7 prints the Figure 5 data table.
func RenderE7(rows []E7Row) string {
	var b strings.Builder
	b.WriteString("Figure 5 / E7: transient-malware detection vs dwell time (ERASMUS, device-level)\n")
	fmt.Fprintf(&b, "%-10s %-10s %-8s %10s %10s %10s\n", "T_M", "dwell", "trials", "simulated", "min(1,d/TM)", "95% CI")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10v %-10v %-8d %10.3f %10.3f %10.3f\n",
			r.TM, r.Dwell, r.Trials, r.MCRate, r.Analytic, r.CI)
	}
	b.WriteString("verifier-side latency: mean T_M/2 + T_C/2, worst T_M + T_C (qoa package)\n")
	return b.String()
}
