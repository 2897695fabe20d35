package experiments

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"saferatt/internal/channel"
	"saferatt/internal/core"
	"saferatt/internal/costmodel"
	"saferatt/internal/device"
	"saferatt/internal/malware"
	"saferatt/internal/mem"
	"saferatt/internal/parallel"
	"saferatt/internal/prover"
	"saferatt/internal/qoa"
	"saferatt/internal/safety"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
	"saferatt/internal/swarm"
)

// A1Row: SMARM block-count ablation. More blocks shrink the preemption
// latency (finer interrupt granularity) but barely move the escape
// probability — the design tradeoff DESIGN.md calls out.
type A1Row struct {
	Blocks         int
	EscapeAnalytic float64
	EscapeMC       float64
	Trials         int
	PreemptLatency sim.Duration // ~one block measurement
}

// AblationSMARMBlocks sweeps the block count for a fixed 256 KiB
// memory.
func AblationSMARMBlocks(blockCounts []int, trials int, seed uint64) []A1Row {
	if blockCounts == nil {
		blockCounts = []int{8, 16, 32, 64, 128}
	}
	if trials == 0 {
		trials = 100
	}
	const memSize = 256 << 10
	var rows []A1Row
	for _, n := range blockCounts {
		blockSize := memSize / n
		opts := core.Preset(core.SMARM, suite.SHA256)
		// Trials shard across the package-default worker count; the
		// ablation helpers take positional arguments, so per-call knobs
		// go through parallel.SetDefault.
		escaped := escapes(0, trials, n, blockSize, opts, mpPrio,
			func(i int) uint64 { return seed + uint64(i+n*13) },
			func(i int) []byte { return []byte{byte(i), byte(n)} },
			func(w *World, s uint64) core.Hooks {
				mw := malware.NewSelfRelocating(w.Dev, malwarePrio, s^0x515)
				mustInfect(mw.Infect, int(s)%(n-1)+1)
				return mw.Hooks()
			})
		p := costmodel.ODROIDXU4()
		rows = append(rows, A1Row{
			Blocks:         n,
			EscapeAnalytic: qoa.SMARMEscapeSingle(n - 1),
			EscapeMC:       float64(escaped) / float64(trials),
			Trials:         trials,
			PreemptLatency: p.StreamTime(suite.SHA256, blockSize) + p.CtxSwitch,
		})
	}
	return rows
}

// RenderA1 prints the block-count ablation.
func RenderA1(rows []A1Row) string {
	var b strings.Builder
	b.WriteString("A1: SMARM block-count ablation (256 KiB memory, single round)\n")
	fmt.Fprintf(&b, "%-8s %12s %12s %16s\n", "blocks", "escape(MC)", "escape(th)", "preempt-latency")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d %12.3f %12.3f %16v\n", r.Blocks, r.EscapeMC, r.EscapeAnalytic, r.PreemptLatency)
	}
	b.WriteString("finer blocks: better interrupt latency, escape probability ~e⁻¹ regardless\n")
	return b.String()
}

// A2Row: lock-granularity ablation for the sliding locks.
type A2Row struct {
	Mechanism    core.MechanismID
	Blocks       int
	Availability float64
}

// AblationLockGranularity sweeps block counts for Dec-Lock and
// Inc-Lock and reports the availability metric of Table 1.
func AblationLockGranularity(blockCounts []int, seed uint64) []A2Row {
	if blockCounts == nil {
		blockCounts = []int{8, 16, 32, 64, 128}
	}
	const memSize = 256 << 10
	mechs := []core.MechanismID{core.AllLock, core.DecLock, core.IncLock}
	// Each (mechanism, block-count) point is an independent simulation.
	return parallel.Map(0, len(mechs)*len(blockCounts), func(i int) A2Row {
		id := mechs[i/len(blockCounts)]
		n := blockCounts[i%len(blockCounts)]
		cfg := Table1Config{Blocks: n, BlockSize: memSize / n, Seed: seed}
		opts := core.Preset(id, suite.SHA256)
		return A2Row{
			Mechanism:    id,
			Blocks:       n,
			Availability: availability(cfg, opts, mpPrio),
		}
	})
}

// RenderA2 prints the granularity ablation.
func RenderA2(rows []A2Row) string {
	var b strings.Builder
	b.WriteString("A2: lock granularity vs writable-memory availability (256 KiB memory)\n")
	fmt.Fprintf(&b, "%-12s %-8s %14s\n", "mechanism", "blocks", "availability")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-8d %14.3f\n", r.Mechanism, r.Blocks, r.Availability)
	}
	return b.String()
}

// A3Row: ERASMUS scheduling-policy ablation.
type A3Row struct {
	ContextAware bool
	Deferred     int
	Measurements int
	// SensorMaxWait is the worst queueing delay any sensor pass
	// suffered — the deterministic interference metric.
	SensorMaxWait sim.Duration
	WorstLatency  sim.Duration
	Missed        int
}

// AblationErasmusScheduling compares fixed vs context-aware
// self-measurement scheduling on a device with a periodic critical
// window, under an ATOMIC measurement core (where scheduling is the
// only lever, per §3.3's compromise (2)).
func AblationErasmusScheduling(seed uint64) []A3Row {
	run := func(aware bool) A3Row {
		opts := core.Preset(core.SMART, suite.SHA256)
		// 8 MiB => ~59 ms atomic measurement; sensor every 100 ms with
		// a 100 ms deadline: a measurement colliding with a sensor
		// pass risks the deadline.
		w := NewWorld(WorldConfig{EngineConfig: EngineConfig{Seed: seed},
			MemSize: 8 << 20, BlockSize: 64 << 10, ROMBlocks: 1, Opts: opts})
		fa := safety.NewFireAlarm(w.Dev, safety.Config{
			Priority:     appPrio,
			SensorPeriod: 100 * sim.Millisecond,
			Deadline:     100 * sim.Millisecond,
			DataBlock:    -1,
		})
		fa.Start()
		// Fires at pseudo-random instants.
		rng := rand.New(rand.NewPCG(seed, 0xa3))
		for i := 0; i < 10; i++ {
			fa.StartFire(sim.Time(sim.Duration(i)*2*sim.Second + sim.Duration(rng.Int64N(int64(sim.Second)))))
		}

		// T_M deliberately misaligned with the 100 ms sensor period
		// (730 ms) so fixed-schedule measurements drift across the
		// sensor phase and periodically collide with a pass.
		e := must(prover.NewErasmus("prv", w.Dev, nil, opts, 730*sim.Millisecond, mpPrio))
		if aware {
			e.ContextAware = true
			e.RetryDelay = 20 * sim.Millisecond
			// The device knows its own schedule: it is "busy" when a
			// sensor pass is due before an atomic measurement (~59 ms)
			// could finish, or when one is already queued.
			period := sim.Time(fa.SensorPeriod)
			e.Busy = func() bool {
				if fa.Task().Pending() > 0 {
					return true
				}
				untilNext := (period - w.K.Now()%period) % period
				return untilNext < sim.Time(70*sim.Millisecond)
			}
		}
		e.Start()
		w.K.RunUntil(sim.Time(20 * sim.Second))
		e.Stop()
		fa.Stop()
		w.K.Run()
		return A3Row{
			ContextAware:  aware,
			Deferred:      e.Deferred,
			Measurements:  len(e.History()),
			SensorMaxWait: fa.Task().Stats().MaxWait,
			WorstLatency:  fa.WorstLatency(),
			Missed:        fa.MissedDeadlines(),
		}
	}
	return parallel.Map(0, 2, func(i int) A3Row { return run(i == 1) })
}

// RenderA3 prints the scheduling ablation.
func RenderA3(rows []A3Row) string {
	var b strings.Builder
	b.WriteString("A3: ERASMUS fixed vs context-aware scheduling (atomic core, 100ms deadline)\n")
	fmt.Fprintf(&b, "%-14s %-10s %-14s %-16s %-14s %-8s\n", "context-aware", "deferred", "measurements", "sensor-max-wait", "worst-latency", "missed")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14v %-10d %-14d %-16v %-14v %-8d\n", r.ContextAware, r.Deferred, r.Measurements, r.SensorMaxWait, r.WorstLatency, r.Missed)
	}
	return b.String()
}

// A4Row: swarm scale ablation, for both protocol shapes (LISA-s-like
// aggregation and LISA-α-like relay).
type A4Row struct {
	Mode       string
	Nodes      int
	Messages   int
	Completion sim.Duration
	Verified   int
}

// AblationSwarmScale measures collective-attestation cost vs swarm
// size over a binary spanning tree, in both protocol modes.
func AblationSwarmScale(sizes []int, seed uint64) []A4Row {
	if sizes == nil {
		sizes = []int{2, 4, 8, 16, 32, 64}
	}
	modes := []swarm.NodeMode{swarm.ModeAggregate, swarm.ModeRelay}
	// Each (mode, size) point builds a private kernel, link and swarm.
	return parallel.Map(0, len(modes)*len(sizes), func(i int) A4Row {
		return swarmPoint(sizes[i%len(sizes)], seed, modes[i/len(sizes)])
	})
}

func swarmPoint(n int, seed uint64, mode swarm.NodeMode) A4Row {
	k := sim.NewKernel()
	link := channel.New(channel.Config{Kernel: k, Latency: 2 * sim.Millisecond, Seed: seed})
	opts := core.Preset(core.NoLock, suite.SHA256)
	nodes := make([]*swarm.Node, 0, n)
	collector := swarm.NewCollector(suite.SHA256)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("n%03d", i)
		m := mem.New(mem.Config{Size: 16 << 10, BlockSize: 1024, ROMBlocks: 1, Clock: k.Now})
		m.FillRandom(rand.New(rand.NewPCG(seed+uint64(i), 4)))
		dev := device.New(device.Config{Kernel: k, Mem: m, Profile: costmodel.ODROIDXU4()})
		node := must(swarm.NewNode(name, dev, link, opts, mpPrio))
		node.Mode = mode
		nodes = append(nodes, node)
		collector.Register(node)
	}
	root := must(swarm.BuildTree(nodes, 2))
	nonce := []byte("swarm-round")
	agg := &swarm.Aggregate{Reports: map[string][]*core.Report{}}
	var doneAt sim.Time
	merge := func(a *swarm.Aggregate) {
		for k2, v := range a.Reports {
			agg.Reports[k2] = v
		}
		doneAt = k.Now()
	}
	root.OnComplete, root.OnPartial = merge, merge
	root.Attest(nonce)
	k.Run()
	if len(agg.Reports) != n {
		panic("experiments: swarm round incomplete")
	}

	res := collector.Judge(agg, nonce, k.Now())
	modeName := "aggregate"
	if mode == swarm.ModeRelay {
		modeName = "relay"
	}
	return A4Row{
		Mode:       modeName,
		Nodes:      n,
		Messages:   link.Stats().Sent,
		Completion: doneAt.Sub(0),
		Verified:   len(res.Verdicts) - len(res.Infected()),
	}
}

// RenderA4 prints the swarm scale table.
func RenderA4(rows []A4Row) string {
	var b strings.Builder
	b.WriteString("A4: collective attestation scale (binary tree, 2ms links, 16 KiB per node)\n")
	fmt.Fprintf(&b, "%-10s %-8s %-10s %-14s %-10s\n", "protocol", "nodes", "messages", "completion", "verified")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-8d %-10d %-14v %-10d\n", r.Mode, r.Nodes, r.Messages, r.Completion, r.Verified)
	}
	b.WriteString("aggregate: 2(n-1) messages, parents wait; relay: ~n·depth small\n")
	b.WriteString("messages, no waiting — the 'tale of two LISAs' tradeoff\n")
	return b.String()
}
