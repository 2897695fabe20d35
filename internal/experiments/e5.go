package experiments

import (
	"fmt"
	"strings"

	"saferatt/internal/core"
	"saferatt/internal/costmodel"
	"saferatt/internal/parallel"
	"saferatt/internal/safety"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
)

// E5Row quantifies the §2.5 fire-alarm scenario for one mechanism and
// attested-memory size: a fire breaks out shortly after a measurement
// starts; how long until the alarm sounds?
type E5Row struct {
	Mechanism    core.MechanismID
	MemBytes     int
	MeasureTime  sim.Duration // t_e - t_s of the measurement
	AlarmLatency sim.Duration // fire -> alarm
	DeadlineMet  bool
	// Analytic marks rows computed from the cost model instead of a
	// full device simulation (used for sizes too large to simulate
	// with real hashing, e.g. the paper's 1 GB example).
	Analytic bool
}

// The paper's example: the alarm senses once a second and must sound
// within one; memory is measured in 64 KiB blocks.
const (
	e5Period, e5Deadline = sim.Second, sim.Second
	e5BlockSize          = 64 << 10
)

// e5AnalyticSizes extend the table via the cost model: 256 MiB and 1 GB
// (the paper's example: ≈7 s).
var e5AnalyticSizes = []int{256 << 20, 1000 << 20}

// E5Config parameterizes the scenario.
type E5Config struct {
	// Sizes to simulate fully (real hashing). Default: 1, 4, 16, 64 MiB.
	SimSizes   []int
	Mechanisms []core.MechanismID
	// Parallelism is the sweep worker count (0 = parallel.Default()).
	Parallelism int
}

func (c *E5Config) setDefaults() {
	if c.SimSizes == nil {
		c.SimSizes = []int{1 << 20, 4 << 20, 16 << 20, 64 << 20}
	}
	if c.Mechanisms == nil {
		c.Mechanisms = []core.MechanismID{core.SMART, core.HYDRA, core.NoLock, core.DecLock, core.IncLock, core.SMARM}
	}
}

// E5FireAlarm runs the scenario sweep. Every (mechanism, size) point is
// an independent deterministic simulation, so the sweep shards across
// workers with the rows in their canonical order.
func E5FireAlarm(cfg E5Config) []E5Row {
	cfg.setDefaults()
	type point struct {
		id       core.MechanismID
		size     int
		analytic bool
	}
	var pts []point
	for _, id := range cfg.Mechanisms {
		for _, size := range cfg.SimSizes {
			pts = append(pts, point{id, size, false})
		}
		for _, size := range e5AnalyticSizes {
			pts = append(pts, point{id, size, true})
		}
	}
	return parallel.Map(cfg.Parallelism, len(pts), func(i int) E5Row {
		p := pts[i]
		if p.analytic {
			return e5Analytic(p.id, p.size)
		}
		return e5Simulate(p.id, p.size)
	})
}

func e5Simulate(id core.MechanismID, size int) E5Row {
	opts := core.Preset(id, suite.SHA256)
	w := NewWorld(WorldConfig{EngineConfig: EngineConfig{Seed: 5},
		MemSize: size, BlockSize: e5BlockSize, ROMBlocks: 1, Opts: opts})
	mpPriority := mpPrio
	if id == core.HYDRA {
		mpPriority = 1000
	}
	// Start the measurement 100 ms before the 3 s sensor pass so the
	// pass lands inside the measurement whenever MP > 100 ms — the
	// paper's collision, staged deterministically — and the fire 10 ms
	// into it ("an actual fire breaks out soon after MP starts").
	alarm, rep := fireCollision(w, opts, mpPriority, "fire", e5Period, e5Deadline,
		sim.Time(2900*sim.Millisecond), 10*sim.Millisecond)
	return E5Row{
		Mechanism:    id,
		MemBytes:     size,
		MeasureTime:  rep.Duration(),
		AlarmLatency: alarm.Latency(),
		DeadlineMet:  alarm.Latency() <= e5Deadline,
	}
}

// fireCollision stages the §2.5 collision on w: a fire-alarm task
// sensing every period, one measurement session starting at start, and
// a fire breaking out fireAfter into it. It runs a minute of virtual
// time past start and returns the first alarm and the session's first
// report.
func fireCollision(w *World, opts core.Options, mpPriority int, nonce string,
	period, deadline sim.Duration, start sim.Time, fireAfter sim.Duration) (safety.Alarm, *core.Report) {
	fa := safety.NewFireAlarm(w.Dev, safety.Config{
		Priority:     appPrio,
		SensorPeriod: period,
		Deadline:     deadline,
		DataBlock:    -1,
	})
	fa.Start()
	var rep *core.Report
	s, begin := w.newSession(opts, []byte(nonce), mpPriority, core.Hooks{}, func(rr []*core.Report) { rep = rr[0] })
	w.K.At(start, begin)
	fa.StartFire(start.Add(fireAfter))
	w.K.RunUntil(start.Add(60 * sim.Second))
	fa.Stop()
	s.Release()
	w.K.Run()
	if len(fa.Alarms) == 0 {
		panic(fmt.Sprintf("experiments: no alarm under %s on %d bytes", opts.Mechanism, w.Mem.Size()))
	}
	return fa.Alarms[0], rep
}

// e5Analytic extends the table to sizes where real hashing would be
// wasteful: under an atomic mechanism the worst-case alarm latency is
// the remaining measurement plus one sensor pass; under a
// block-interruptible one it is ~one sensor period regardless of size.
func e5Analytic(id core.MechanismID, size int) E5Row {
	p := costmodel.ODROIDXU4()
	mp := p.MACTime(suite.SHA256, size)
	atomic := id == core.SMART || id == core.HYDRA
	// Mirrors the simulated geometry: MP starts 100 ms before a sensor
	// pass, the fire 10 ms after t_s (90 ms before the pass).
	const gap = 90 * sim.Millisecond
	var latency sim.Duration
	if atomic {
		// The pending sensor pass runs when MP ends.
		latency = mp - 10*sim.Millisecond
		if latency < gap {
			latency = gap
		}
	} else {
		// The pass preempts MP at the next block boundary.
		latency = gap + p.StreamTime(suite.SHA256, e5BlockSize) + p.CtxSwitch
	}
	return E5Row{
		Mechanism:    id,
		MemBytes:     size,
		MeasureTime:  mp,
		AlarmLatency: latency,
		DeadlineMet:  latency <= e5Deadline,
		Analytic:     true,
	}
}

// RenderE5 prints the scenario table.
func RenderE5(rows []E5Row) string {
	var b strings.Builder
	b.WriteString("E5 (§2.5): fire-alarm latency while attesting (fire 10ms after t_s, 1s sensor period)\n")
	fmt.Fprintf(&b, "%-12s %-10s %14s %14s %9s %9s\n",
		"mechanism", "memory", "MP duration", "alarm latency", "deadline", "source")
	for _, r := range rows {
		src := "simulated"
		if r.Analytic {
			src = "analytic"
		}
		met := "MET"
		if !r.DeadlineMet {
			met = "MISSED"
		}
		fmt.Fprintf(&b, "%-12s %-10s %14v %14v %9s %9s\n",
			r.Mechanism, byteSize(r.MemBytes), r.MeasureTime, r.AlarmLatency, met, src)
	}
	return b.String()
}
