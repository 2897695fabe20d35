package experiments

import (
	"fmt"
	"strings"

	"saferatt/internal/core"
	"saferatt/internal/malware"
	"saferatt/internal/mem"
	"saferatt/internal/parallel"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
)

// Table1Row is one measured row of the paper's Table 1. Where the
// paper prints ✓/✗ judgments, this experiment prints the measured
// quantities those judgments summarize.
type Table1Row struct {
	Mechanism core.MechanismID

	// SelfRelocEscape and TransientEscape are adversary escape rates
	// over the Monte Carlo trials (paper's ✓ detection ⇔ rate ≈ 0).
	SelfRelocEscape float64
	TransientEscape float64

	// Availability is the fraction of timely, successful writes a
	// high-priority application achieved while a measurement ran
	// (captures both lock denials and CPU starvation).
	Availability float64

	// ConsistentAtTS / ConsistentAtTE report whether a measurement
	// taken while a concurrent writer ran is temporally consistent
	// with memory at t_s / t_e (Fig. 4 semantics).
	ConsistentAtTS bool
	ConsistentAtTE bool

	// PreemptLatency is the worst wait of a top-priority application
	// step submitted mid-measurement.
	PreemptLatency sim.Duration

	// Overhead is the measurement duration relative to the SMART
	// baseline (1.0 = identical).
	Overhead float64

	// Static architectural properties (not measurable from one run).
	Unattended bool
	ExtraHW    string

	Trials int
}

// Table1Config parameterizes the matrix.
type Table1Config struct {
	Blocks      int    // default 32
	BlockSize   int    // default 256
	Trials      int    // Monte Carlo trials per adversary cell, default 20
	SMARMRounds int    // default 13 (the paper's prescription)
	Seed        uint64 // base randomness seed
	// Parallelism is the worker count for both the mechanism rows and
	// the Monte Carlo trials within each cell (0 = parallel.Default()).
	Parallelism int
}

func (c *Table1Config) setDefaults() {
	if c.Blocks == 0 {
		c.Blocks = 32
	}
	if c.BlockSize == 0 {
		// Block time must dominate context-switch cost or the probe
		// workloads below would saturate the CPU: 4 KiB at 7 ns/B is
		// ~29 us per block vs 5 us per switch.
		c.BlockSize = 4096
	}
	if c.Trials == 0 {
		c.Trials = 20
	}
	if c.SMARMRounds == 0 {
		c.SMARMRounds = 13
	}
}

// extraHW mirrors Table 1's "Extra HW Requirements" column.
var extraHW = map[core.MechanismID]string{
	core.SMART:      "ROM + key access control (baseline)",
	core.HYDRA:      "MMU + verified microkernel",
	core.NoLock:     "baseline",
	core.AllLock:    "dynamically configurable MPU/MMU",
	core.AllLockExt: "dynamically configurable MPU/MMU",
	core.DecLock:    "dynamically configurable MPU/MMU",
	core.IncLock:    "dynamically configurable MPU/MMU",
	core.IncLockExt: "dynamically configurable MPU/MMU",
	core.SMARM:      "none (optionally secure memory)",
	core.Erasmus:    "secure clock",
}

const (
	appPrio     = 100
	mpPrio      = 5
	malwarePrio = 50 // compromised software outranks MP, not the app
)

// table1Spec is one row of the matrix as data: the options measured
// and what the row states rather than measures.
type table1Spec struct {
	id         core.MechanismID
	opts       core.Options
	mpPriority int
	unattended bool
	// transientByGeometry states TransientEscape as 0: a dwell longer
	// than T_M always meets a scheduled measurement (E7 sweeps this).
	transientByGeometry bool
}

// Table1 measures the feature matrix. Rows cover every on-demand
// mechanism plus an ERASMUS row whose measurement core is atomic (as in
// the ERASMUS paper: the SMART preset, so roving and start-time
// transient malware are caught) and whose transient-detection value
// comes from the scheduled-measurement geometry.
func Table1(cfg Table1Config) []Table1Row {
	cfg.setDefaults()

	var specs []table1Spec
	for _, id := range core.Mechanisms() {
		sp := table1Spec{id: id, opts: core.Preset(id, suite.SHA256), mpPriority: mpPrio}
		if id == core.SMARM {
			sp.opts.Rounds = cfg.SMARMRounds
		}
		if id == core.HYDRA {
			sp.mpPriority = 1000 // HYDRA: MP outranks everything
		}
		specs = append(specs, sp)
	}
	specs = append(specs, table1Spec{id: core.Erasmus, opts: core.Preset(core.SMART, suite.SHA256),
		mpPriority: mpPrio, unattended: true, transientByGeometry: true})

	// The SMART baseline is shared by every row's Overhead column, so it
	// runs before the fan-out; each row is then an independent bundle of
	// simulations and shards across workers in table order.
	baseline := measureDuration(cfg, core.Preset(core.SMART, suite.SHA256))
	return parallel.Map(cfg.Parallelism, len(specs), func(i int) Table1Row {
		sp := specs[i]
		row := Table1Row{
			Mechanism:  sp.id,
			Unattended: sp.unattended,
			ExtraHW:    extraHW[sp.id],
			Trials:     cfg.Trials,
		}
		row.SelfRelocEscape = escapeRate(cfg, sp, func(w *World, seed uint64) core.Hooks {
			mw := malware.NewSelfRelocating(w.Dev, malwarePrio, seed)
			mustInfect(mw.Infect, int(seed)%(cfg.Blocks-1)+1)
			return mw.Hooks()
		})
		if !sp.transientByGeometry {
			row.TransientEscape = escapeRate(cfg, sp, func(w *World, seed uint64) core.Hooks {
				mw := malware.NewTransient(w.Dev, malwarePrio)
				mw.EraseOnMeasureStart = true
				mustInfect(mw.Infect, int(seed)%(cfg.Blocks-1)+1)
				return mw.Hooks()
			})
		}
		row.Availability = availability(cfg, sp.opts, sp.mpPriority)
		row.ConsistentAtTS, row.ConsistentAtTE = consistency(cfg, sp.opts, sp.mpPriority)
		row.PreemptLatency = preemptLatency(cfg, sp.opts, sp.mpPriority)
		row.Overhead = float64(measureDuration(cfg, sp.opts)) / float64(baseline)
		return row
	})
}

func mustInfect(infect func(int) error, block int) {
	if err := infect(block); err != nil {
		panic("experiments: infect: " + err.Error())
	}
}

// escapeRate runs Monte Carlo trials of one adversary against one
// row's mechanism; returns the fraction of trials the adversary
// escaped.
func escapeRate(cfg Table1Config, sp table1Spec, plant func(*World, uint64) core.Hooks) float64 {
	n := escapes(cfg.Parallelism, cfg.Trials, cfg.Blocks, cfg.BlockSize, sp.opts, sp.mpPriority,
		func(i int) uint64 { return cfg.Seed + uint64(i)*7919 },
		func(i int) []byte { return []byte{byte(i), byte(i >> 8), 0x42} }, plant)
	return float64(n) / float64(cfg.Trials)
}

// availability probes timely writability during one measurement: a
// top-priority app attempts a small write to a cycling block every
// half-block-time; a probe succeeds if the write is performed (not
// lock-denied) within one block time of submission.
func availability(cfg Table1Config, opts core.Options, mpPriority int) float64 {
	w := NewWorld(WorldConfig{EngineConfig: EngineConfig{Seed: cfg.Seed + 1, NoTrace: true},
		MemSize: cfg.Blocks * cfg.BlockSize, BlockSize: cfg.BlockSize, ROMBlocks: 1, Opts: opts})
	blockTime := w.Dev.Profile.StreamTime(opts.Hash, cfg.BlockSize)
	eps := 2*blockTime + 10*w.Dev.Profile.CtxSwitch

	app := w.Dev.NewTask("prober", appPrio)
	type probe struct {
		submitted sim.Time
		completed sim.Time
		ok        bool
	}
	var probes []probe
	measuring := true
	next := 1
	var tick func(sim.Time)
	// Probe every two block-times: frequent enough to resolve the
	// sliding-lock gradient, cheap enough (~20% CPU) that MP still
	// progresses under preemption.
	ticker := w.K.NewTicker(2*blockTime, func(now sim.Time) { tick(now) })
	tick = func(now sim.Time) {
		if !measuring {
			return
		}
		idx := len(probes)
		probes = append(probes, probe{submitted: now})
		target := next%(cfg.Blocks-1) + 1
		next++
		app.Submit(sim.Microsecond, func() {
			err := w.Mem.Write(target*cfg.BlockSize+8, []byte{0xA5})
			probes[idx].completed = w.K.Now()
			probes[idx].ok = err == nil
		})
	}

	s, start := w.newSession(opts, []byte("avail"), mpPriority, core.Hooks{}, func([]*core.Report) {
		measuring = false
		ticker.Stop()
	})
	start()
	w.K.Run()
	s.Release()

	timely := 0
	for _, p := range probes {
		if p.ok && p.completed.Sub(p.submitted) <= eps {
			timely++
		}
	}
	if len(probes) == 0 {
		return 1
	}
	return float64(timely) / float64(len(probes))
}

// consistency runs a measurement while a concurrent high-priority
// writer mutates memory, then judges the report against memory-at-t_s
// and memory-at-t_e using the write log (Fig. 4 semantics).
func consistency(cfg Table1Config, opts core.Options, mpPriority int) (atTS, atTE bool) {
	// Consistency judgment replays the write log, so this world records
	// writes (the only Table 1 world that does).
	w := NewWorld(WorldConfig{EngineConfig: EngineConfig{Seed: cfg.Seed + 2, NoTrace: true},
		MemSize: cfg.Blocks * cfg.BlockSize, BlockSize: cfg.BlockSize, ROMBlocks: 1, Opts: opts,
		LogWrites: true})
	blockTime := w.Dev.Profile.StreamTime(opts.Hash, cfg.BlockSize)

	writer := w.Dev.NewTask("writer", appPrio)
	next := 1
	done := false
	ticker := w.K.NewTicker(blockTime+blockTime/3, func(sim.Time) {
		if done {
			return
		}
		target := next%(cfg.Blocks-1) + 1
		next += 7 // stride across memory
		writer.Submit(sim.Microsecond, func() {
			_ = w.Mem.Write(target*cfg.BlockSize+4, []byte{0x5C}) // may fault under locks
		})
	})

	singleRound := opts
	singleRound.Rounds = 1
	var reports []*core.Report
	s, start := w.newSession(singleRound, []byte("consis"), mpPriority, core.Hooks{}, func(rr []*core.Report) {
		reports = rr
		done = true
		ticker.Stop()
	})
	start()
	w.K.Run()
	s.Release()

	rep := reports[0]
	log := w.Mem.WriteLog()
	return mem.ConsistentAt(log, rep.Coverage, rep.TS), mem.ConsistentAt(log, rep.Coverage, rep.TE)
}

// preemptLatency measures the worst wait of a top-priority application
// step submitted one third of the way into a measurement.
func preemptLatency(cfg Table1Config, opts core.Options, mpPriority int) sim.Duration {
	w := NewWorld(WorldConfig{EngineConfig: EngineConfig{Seed: cfg.Seed + 3, NoTrace: true},
		MemSize: cfg.Blocks * cfg.BlockSize, BlockSize: cfg.BlockSize, ROMBlocks: 1, Opts: opts})
	app := w.Dev.NewTask("app", appPrio)

	singleRound := opts
	singleRound.Rounds = 1
	fired := false
	s, start := w.newSession(singleRound, []byte("lat"), mpPriority, core.Hooks{OnBlock: func(p core.Progress) {
		if !fired && p.Count >= p.Total/3 {
			fired = true
			app.Submit(sim.Microsecond, nil)
		}
	}}, nil)
	start()
	w.K.Run()
	s.Release()
	return app.Stats().MaxWait
}

// measureDuration times one clean attestation session — all rounds, so
// SMARM's k successive measurements show up as k× run-time overhead.
func measureDuration(cfg Table1Config, opts core.Options) sim.Duration {
	w := NewWorld(WorldConfig{EngineConfig: EngineConfig{Seed: cfg.Seed + 4, NoTrace: true},
		MemSize: cfg.Blocks * cfg.BlockSize, BlockSize: cfg.BlockSize, ROMBlocks: 1, Opts: opts})
	reports := w.RunSessionToEnd(opts, []byte("dur"), mpPrio, core.Hooks{})
	return reports[len(reports)-1].TE.Sub(reports[0].TS)
}

// RenderTable1 prints the measured matrix.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1 (measured): adversary escape rates, availability, consistency, latency\n")
	fmt.Fprintf(&b, "%-14s %10s %10s %7s %6s %6s %14s %9s %-36s\n",
		"mechanism", "reloc-esc", "trans-esc", "avail", "consTS", "consTE", "preempt-lat", "overhead", "extra HW")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %10.2f %10.2f %7.2f %6v %6v %14v %9.3f %-36s\n",
			r.Mechanism, r.SelfRelocEscape, r.TransientEscape, r.Availability,
			r.ConsistentAtTS, r.ConsistentAtTE, r.PreemptLatency, r.Overhead, r.ExtraHW)
	}
	return b.String()
}
