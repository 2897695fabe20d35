package main

import (
	"fmt"
	"math/rand/v2"

	"saferatt/internal/channel"
	"saferatt/internal/core"
	"saferatt/internal/costmodel"
	"saferatt/internal/device"
	"saferatt/internal/experiments"
	"saferatt/internal/malware"
	"saferatt/internal/mem"
	"saferatt/internal/prover"
	"saferatt/internal/rattd"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
	"saferatt/internal/swarm"
	"saferatt/internal/transport"
	"saferatt/internal/verifier"
)

// runErasmus drives a self-measurement scenario: TM-periodic
// measurements, a transient infection at a random phase, one collection.
func runErasmus(memSize, block int, seed uint64, horizonSec, tmSec int) {
	opts := core.Preset(core.SMART, suite.SHA256)
	w := experiments.NewWorld(experiments.WorldConfig{
		EngineConfig: experiments.EngineConfig{Seed: seed},
		MemSize:      memSize, BlockSize: block, ROMBlocks: 1,
		Opts: opts, Latency: 5 * sim.Millisecond,
	})
	tm := sim.Duration(tmSec) * sim.Second
	e, err := prover.NewErasmus("prv", w.Dev, w.Tr, opts, tm, 5)
	if err != nil {
		fatal(err)
	}
	e.Start()

	rng := rand.New(rand.NewPCG(seed, 0xCafe))
	mw := malware.NewTransient(w.Dev, 50)
	t0 := sim.Time(tm).Add(sim.Duration(rng.Int64N(int64(tm))))
	dwell := tm + tm/2
	mw.ScheduleDwell(1+rng.IntN(memSize/block-1), t0, t0.Add(dwell))
	fmt.Printf("ERASMUS: T_M=%v, transient infection at %v for %v\n", tm, t0, dwell)

	horizon := sim.Duration(horizonSec) * sim.Second
	w.K.At(sim.Time(horizon-sim.Second), func() { w.Ver.Collect("prv") })
	w.K.RunUntil(sim.Time(horizon))
	e.Stop()
	w.K.Run()

	c := w.Ver.Counts()
	fmt.Printf("collected history: %d accepted, %d rejected -> detected=%v\n",
		c.Accepted, c.Rejected, c.Rejected > 0)
	q := verifier.QoAOf(e.History(), w.K.Now())
	fmt.Printf("QoA: mean T_M %v, worst gap %v, staleness %v over %d measurements\n",
		q.MeanTM, q.WorstGap, q.Staleness, q.Measurements)
}

// runSeed drives a non-interactive scenario over a lossy link.
func runSeed(memSize, block int, seed uint64, horizonSec int, loss float64) {
	opts := core.Preset(core.NoLock, suite.SHA256)
	w := experiments.NewWorld(experiments.WorldConfig{
		EngineConfig: experiments.EngineConfig{Seed: seed},
		MemSize:      memSize, BlockSize: block, ROMBlocks: 1,
		Opts: opts, Latency: 5 * sim.Millisecond, Loss: loss,
	})
	shared := core.PRF([]byte{byte(seed)}, "demo-seed", seed)[:16]
	p, err := prover.NewSeED("prv", w.Dev, w.Tr, opts, shared, 5*sim.Second, 2500*sim.Millisecond, 5)
	if err != nil {
		fatal(err)
	}
	mon := w.Ver.MonitorSeED("prv", shared, 5*sim.Second, 2500*sim.Millisecond, 0, 10*sim.Second)
	p.Start()
	w.K.RunUntil(sim.Time(sim.Duration(horizonSec) * sim.Second))
	mon.Stop()
	p.Stop()
	w.K.Run()

	c := w.Ver.Counts()
	fmt.Printf("SeED over %ds at %.0f%% loss: %d triggers, %d accepted, %d missing, %d replays\n",
		horizonSec, loss*100, p.Counter(), c.Accepted, c.Missing, c.Replays)
}

// runSwarm drives a collective attestation round.
func runSwarm(n int, seed uint64, infect int) {
	k := sim.NewKernel()
	link := channel.New(channel.Config{Kernel: k, Latency: 2 * sim.Millisecond, Seed: seed})
	opts := core.Preset(core.NoLock, suite.SHA256)
	collector := swarm.NewCollector(suite.SHA256)
	nodes := make([]*swarm.Node, 0, n)
	index := map[string]*swarm.Node{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("node%03d", i)
		m := mem.New(mem.Config{Size: 16 << 10, BlockSize: 1024, ROMBlocks: 1, Clock: k.Now})
		m.FillRandom(rand.New(rand.NewPCG(seed+uint64(i), 7)))
		dev := device.New(device.Config{Kernel: k, Mem: m, Profile: costmodel.ODROIDXU4()})
		node, err := swarm.NewNode(name, dev, link, opts, 5)
		if err != nil {
			fatal(err)
		}
		nodes = append(nodes, node)
		index[name] = node
		collector.Register(node)
	}
	root, err := swarm.BuildTree(nodes, 2)
	if err != nil {
		fatal(err)
	}
	if infect >= 0 && infect < n {
		if err := nodes[infect].Dev.Mem.Poke(5*1024+1, 0xBD); err != nil {
			fatal(err)
		}
		fmt.Printf("infecting %s\n", nodes[infect].Name)
	}
	var agg *swarm.Aggregate
	root.OnComplete = func(a *swarm.Aggregate) { agg = a }
	nonce := []byte(fmt.Sprintf("round-%d", seed))
	root.Attest(nonce)
	k.Run()

	res := collector.Judge(agg, nonce, k.Now())
	fmt.Printf("swarm of %d: completed at %v with %d messages (depth %d)\n",
		n, k.Now(), link.Stats().Sent, swarm.Depth(root, index))
	fmt.Printf("healthy=%v infected=%v missing=%v\n", res.Healthy(), res.Infected(), res.Missing)
}

// runSwarmSharded drives a fleet-scale collection round on the sharded
// engine: copy-on-write device images, worker-sharded measurement, and
// batched verification at the collector.
func runSwarmSharded(devices, shards int, seed uint64, infect int) {
	s, err := swarm.NewSharded(swarm.ShardedConfig{
		EngineConfig: swarm.EngineConfig{Seed: seed, Parallelism: shards},
		Devices:      devices,
	})
	if err != nil {
		fatal(err)
	}
	if infect >= 0 && infect < devices {
		if err := s.Mem(infect).Poke(5*256+1, 0xBD); err != nil {
			fatal(err)
		}
		fmt.Printf("infecting d%05d\n", infect)
	}
	nonce := []byte(fmt.Sprintf("round-%d", seed))
	res, err := s.Round(nonce)
	if err != nil {
		fatal(err)
	}
	bs := s.Collector.BatchStats()
	fmt.Printf("sharded fleet of %d: completed at %v\n", devices, res.At)
	fmt.Printf("resident image bytes: %d (golden + %d dirty blocks)\n",
		s.ResidentBytes(), s.DirtyBlocks())
	fmt.Printf("verification: %d expected tags computed for %d reports\n",
		bs.Computed, bs.Reports)
	fmt.Printf("healthy=%v infected=%v missing=%v\n", res.Healthy(), res.Infected(), res.Missing)
}

// rattpingOpts carries the rattping mode's flag surface.
type rattpingOpts struct {
	addr        string
	shards      int // width of the target rattd tier (0/1 = single daemon)
	provers     int
	seed        uint64
	memSize     int
	block       int
	history     int
	concurrency int
	net         transport.NetConfig
}

// runRattping drives a fleet of real-socket provers against a live
// rattd daemon or sharded tier: each completes a SMART
// challenge/response round and ships an ERASMUS collection, over UDP
// with retries. The image parameters (seed, mem, block) must match
// the daemon's; with -shards the tier is assumed to sit on
// consecutive ports starting at the base address, exactly as
// `rattd -shards` lays it out, and provers route by rendezvous hash.
func runRattping(o rattpingOpts) {
	cfg := rattd.FleetConfig{
		Addr:        o.addr,
		Provers:     o.provers,
		Concurrency: o.concurrency,
		Image:       rattd.GoldenImage(o.seed, o.memSize, o.block),
		BlockSize:   o.block,
		History:     o.history,
		Net:         o.net,
		Logf:        func(format string, args ...any) { fmt.Printf("  "+format+"\n", args...) },
	}
	target := o.addr
	if o.shards > 1 {
		addrs, err := rattd.TierAddrs(o.addr, o.shards)
		if err != nil {
			fatal(err)
		}
		cfg.Addrs = addrs
		target = fmt.Sprintf("%s (+%d shard ports)", o.addr, o.shards-1)
	}
	fmt.Printf("rattping: %d provers -> %s (image seed=%d, %d bytes in %d-byte blocks)\n",
		o.provers, target, o.seed, o.memSize, o.block)
	res, err := rattd.RunFleet(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("SMART:      %d ok, %d failed\n", res.SMARTOK, res.SMARTFail)
	if o.history > 0 {
		fmt.Printf("collection: %d ok, %d failed\n", res.CollectOK, res.CollectFail)
	}
	if res.ShardProvers != nil {
		fmt.Printf("routing:    provers per shard %v\n", res.ShardProvers)
	}
	fmt.Printf("round trip: p50=%v p99=%v max=%v\n", res.P50, res.P99, res.Max)
	fmt.Printf("datagrams:  sent=%d resent=%d received=%d dups=%d expired=%d batches=%d coalesced=%d\n",
		res.Net.Sent, res.Net.Resent, res.Net.Received, res.Net.Dups, res.Net.Expired,
		res.Net.BatchesSent, res.Net.Coalesced)
}

// runTyTAN drives a per-process attestation round with colluding
// malware, with and without process isolation.
func runTyTAN(seed uint64, isolation bool) {
	k := sim.NewKernel()
	m := mem.New(mem.Config{Size: 16 << 10, BlockSize: 1024, ROMBlocks: 1, Clock: k.Now})
	m.FillRandom(rand.New(rand.NewPCG(seed, 3)))
	dev := device.New(device.Config{Kernel: k, Mem: m, Profile: costmodel.ODROIDXU4()})
	golden := m.Snapshot()

	procA := &core.Process{Name: "procA", Task: dev.NewTask("procA", 50),
		Region: device.Region{Start: 1, Count: 7}}
	procB := &core.Process{Name: "procB", Task: dev.NewTask("procB", 50),
		Region: device.Region{Start: 8, Count: 8}}
	procs := []*core.Process{procA, procB}
	ty, err := core.NewTyTAN(dev, 10, procs)
	if err != nil {
		fatal(err)
	}
	col, err := malware.NewColluding(dev, procs)
	if err != nil {
		fatal(err)
	}
	if isolation {
		dev.EnableProcessIsolation(map[*device.Task]device.Region{
			procA.Task: procA.Region,
			procB.Task: procB.Region,
		})
	}
	ty.HooksFor = col.HooksFor

	var reports map[string]*core.Report
	ty.MeasureAll([]byte("tytan-round"), func(r map[string]*core.Report, err error) {
		if err != nil {
			fatal(err)
		}
		reports = r
	})
	k.Run()

	fmt.Printf("TyTAN per-process attestation, isolation=%v, colluding malware in both processes\n", isolation)
	img := verifier.ImageOf(golden, 1024)
	scheme := suite.Scheme{Hash: suite.SHA256, Key: dev.AttestationKey}
	allClean := true
	for name, rep := range reports {
		ok, _ := img.VerifyTag(scheme, dev.AttestationKey, core.Options{}, rep)
		fmt.Printf("  %s: verified=%v\n", name, ok)
		allClean = allClean && ok
	}
	fmt.Printf("attack outcome: escaped=%v (cross-writes %d, blocked %d, persisted=%v)\n",
		allClean, col.CrossWrites, col.BlockedWrites, col.Persisted())
}

func fatal(err error) {
	fmt.Println("rattsim:", err)
	panic(err)
}
