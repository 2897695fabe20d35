package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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
	"saferatt/internal/services"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
	"saferatt/internal/swarm"
	"saferatt/internal/transport"
	"saferatt/internal/verifier"
)

// runErasmus drives a self-measurement scenario: TM-periodic
// measurements, a transient infection at a random phase, one collection.
func runErasmus(out io.Writer, memSize, block int, seed uint64, horizonSec, tmSec int) error {
	opts := core.Preset(core.SMART, suite.SHA256)
	w := experiments.NewWorld(experiments.WorldConfig{
		EngineConfig: experiments.EngineConfig{Seed: seed},
		MemSize:      memSize, BlockSize: block, ROMBlocks: 1,
		Opts: opts, Latency: 5 * sim.Millisecond,
	})
	tm := sim.Duration(tmSec) * sim.Second
	e, err := prover.NewErasmus("prv", w.Dev, w.Tr, opts, tm, 5)
	if err != nil {
		return err
	}
	e.Start()

	rng := rand.New(rand.NewPCG(seed, 0xCafe))
	mw := malware.NewTransient(w.Dev, 50)
	t0 := sim.Time(tm).Add(sim.Duration(rng.Int64N(int64(tm))))
	dwell := tm + tm/2
	mw.ScheduleDwell(1+rng.IntN(memSize/block-1), t0, t0.Add(dwell))
	fmt.Fprintf(out, "ERASMUS: T_M=%v, transient infection at %v for %v\n", tm, t0, dwell)

	horizon := sim.Duration(horizonSec) * sim.Second
	w.K.At(sim.Time(horizon-sim.Second), func() { w.Ver.Collect("prv") })
	w.K.RunUntil(sim.Time(horizon))
	e.Stop()
	w.K.Run()

	c := w.Ver.Counts()
	fmt.Fprintf(out, "collected history: %d accepted, %d rejected -> detected=%v\n",
		c.Accepted, c.Rejected, c.Rejected > 0)
	q := verifier.QoAOf(e.History(), w.K.Now())
	fmt.Fprintf(out, "QoA: mean T_M %v, worst gap %v, staleness %v over %d measurements\n",
		q.MeanTM, q.WorstGap, q.Staleness, q.Measurements)
	return nil
}

// runSeed drives a non-interactive scenario over a lossy link.
func runSeed(out io.Writer, memSize, block int, seed uint64, horizonSec int, loss float64) error {
	opts := core.Preset(core.NoLock, suite.SHA256)
	w := experiments.NewWorld(experiments.WorldConfig{
		EngineConfig: experiments.EngineConfig{Seed: seed},
		MemSize:      memSize, BlockSize: block, ROMBlocks: 1,
		Opts: opts, Latency: 5 * sim.Millisecond, Loss: loss,
	})
	shared := core.PRF([]byte{byte(seed)}, "demo-seed", seed)[:16]
	p, err := prover.NewSeED("prv", w.Dev, w.Tr, opts, shared, 5*sim.Second, 2500*sim.Millisecond, 5)
	if err != nil {
		return err
	}
	mon := w.Ver.MonitorSeED("prv", shared, 5*sim.Second, 2500*sim.Millisecond, 0, 10*sim.Second)
	p.Start()
	w.K.RunUntil(sim.Time(sim.Duration(horizonSec) * sim.Second))
	mon.Stop()
	p.Stop()
	w.K.Run()

	c := w.Ver.Counts()
	fmt.Fprintf(out, "SeED over %ds at %.0f%% loss: %d triggers, %d accepted, %d missing, %d replays\n",
		horizonSec, loss*100, p.Counter(), c.Accepted, c.Missing, c.Replays)
	return nil
}

// runSwarm drives a collective attestation round.
func runSwarm(out io.Writer, n int, seed uint64, infect int) error {
	k := sim.NewKernel()
	link := channel.New(channel.Config{Kernel: k, Latency: 2 * sim.Millisecond, Seed: seed})
	opts := core.Preset(core.NoLock, suite.SHA256)
	collector := swarm.NewCollector(suite.SHA256)
	nodes := make([]*swarm.Node, 0, n)
	index := map[string]*swarm.Node{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("node%03d", i)
		g := mem.RandomGolden(16<<10, 1024, 1, rand.New(rand.NewPCG(seed+uint64(i), 7)))
		m := mem.NewShared(g, mem.SharedConfig{Clock: k.Now})
		dev := device.New(device.Config{Kernel: k, Mem: m, Profile: costmodel.ODROIDXU4()})
		node, err := swarm.NewNode(name, dev, link, opts, 5)
		if err != nil {
			return err
		}
		nodes = append(nodes, node)
		index[name] = node
		collector.Register(node)
	}
	root, err := swarm.BuildTree(nodes, 2)
	if err != nil {
		return err
	}
	if infect >= 0 {
		if err := nodes[infect].Dev.Mem.Poke(5*1024+1, 0xBD); err != nil {
			return err
		}
		fmt.Fprintf(out, "infecting %s\n", nodes[infect].Name)
	}
	var agg *swarm.Aggregate
	root.OnComplete = func(a *swarm.Aggregate) { agg = a }
	nonce := []byte(fmt.Sprintf("round-%d", seed))
	root.Attest(nonce)
	k.Run()

	res := collector.Judge(agg, nonce, k.Now())
	fmt.Fprintf(out, "swarm of %d: completed at %v with %d messages (depth %d)\n",
		n, k.Now(), link.Stats().Sent, swarm.Depth(root, index))
	fmt.Fprintf(out, "healthy=%v infected=%v missing=%v\n", res.Healthy(), res.Infected(), res.Missing)
	return nil
}

// runSwarmSharded drives a fleet-scale collection round on the sharded
// engine: copy-on-write device images, worker-sharded measurement, and
// batched verification at the collector.
func runSwarmSharded(out io.Writer, devices, shards int, seed uint64, infect int) error {
	s, err := swarm.NewSharded(swarm.ShardedConfig{
		EngineConfig: swarm.EngineConfig{Seed: seed, Parallelism: shards},
		Devices:      devices,
	})
	if err != nil {
		return err
	}
	if infect >= 0 {
		if err := s.Mem(infect).Poke(5*256+1, 0xBD); err != nil {
			return err
		}
		fmt.Fprintf(out, "infecting d%05d\n", infect)
	}
	nonce := []byte(fmt.Sprintf("round-%d", seed))
	res, err := s.Round(nonce)
	if err != nil {
		return err
	}
	bs := s.Collector.BatchStats()
	fmt.Fprintf(out, "sharded fleet of %d: completed at %v\n", devices, res.At)
	fmt.Fprintf(out, "resident image bytes: %d (golden + %d dirty blocks)\n",
		s.ResidentBytes(), s.DirtyBlocks())
	fmt.Fprintf(out, "verification: %d expected tags computed for %d reports\n",
		bs.Computed, bs.Reports)
	fmt.Fprintf(out, "healthy=%v infected=%v missing=%v\n", res.Healthy(), res.Infected(), res.Missing)
	return nil
}

// rattpingOpts carries the rattping mode's flag surface.
type rattpingOpts struct {
	addr        string
	provers     int
	seed        uint64
	memSize     int
	block       int
	history     int
	concurrency int
	net         transport.NetConfig
}

// runRattping drives a fleet of real-socket provers against a live
// rattd daemon: each completes a SMART challenge/response round and
// ships an ERASMUS collection, over UDP with retries. The image
// parameters (seed, mem, block) must match the daemon's. Several
// daemons take one run each.
func runRattping(out io.Writer, o rattpingOpts) error {
	cfg := rattd.FleetConfig{
		Addr:        o.addr,
		Provers:     o.provers,
		Concurrency: o.concurrency,
		Image:       rattd.GoldenImage(o.seed, o.memSize, o.block),
		BlockSize:   o.block,
		History:     o.history,
		Net:         o.net,
		Logf:        func(format string, args ...any) { fmt.Fprintf(out, "  "+format+"\n", args...) },
	}
	fmt.Fprintf(out, "rattping: %d provers -> %s (image seed=%d, %d bytes in %d-byte blocks)\n",
		o.provers, o.addr, o.seed, o.memSize, o.block)
	res, err := rattd.RunFleet(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "SMART:      %d ok, %d failed\n", res.SMARTOK, res.SMARTFail)
	if o.history > 0 {
		fmt.Fprintf(out, "collection: %d ok, %d failed\n", res.CollectOK, res.CollectFail)
	}
	fmt.Fprintf(out, "round trip: p50=%v p99=%v max=%v\n", res.P50, res.P99, res.Max)
	fmt.Fprintf(out, "datagrams:  sent=%d resent=%d received=%d dups=%d expired=%d batches=%d coalesced=%d\n",
		res.Net.Sent, res.Net.Resent, res.Net.Received, res.Net.Dups, res.Net.Expired,
		res.Net.BatchesSent, res.Net.Coalesced)
	return nil
}

// runTyTAN drives a per-process attestation round with colluding
// malware, with and without process isolation.
func runTyTAN(out io.Writer, seed uint64, isolation bool) error {
	k := sim.NewKernel()
	g := mem.RandomGolden(16<<10, 1024, 1, rand.New(rand.NewPCG(seed, 3)))
	m := mem.NewShared(g, mem.SharedConfig{Clock: k.Now})
	dev := device.New(device.Config{Kernel: k, Mem: m, Profile: costmodel.ODROIDXU4()})
	golden := g.Bytes()

	procA := &core.Process{Name: "procA", Task: dev.NewTask("procA", 50),
		Region: device.Region{Start: 1, Count: 7}}
	procB := &core.Process{Name: "procB", Task: dev.NewTask("procB", 50),
		Region: device.Region{Start: 8, Count: 8}}
	procs := []*core.Process{procA, procB}
	ty, err := core.NewTyTAN(dev, 10, procs)
	if err != nil {
		return err
	}
	col, err := malware.NewColluding(dev, procs)
	if err != nil {
		return err
	}
	if isolation {
		dev.EnableProcessIsolation(map[*device.Task]device.Region{
			procA.Task: procA.Region,
			procB.Task: procB.Region,
		})
	}
	ty.HooksFor = col.HooksFor

	var reports map[string]*core.Report
	ty.MeasureAll([]byte("tytan-round"), func(r map[string]*core.Report, e error) { reports, err = r, e })
	k.Run()
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "TyTAN per-process attestation, isolation=%v, colluding malware in both processes\n", isolation)
	img := verifier.ImageOf(golden, 1024)
	scheme := suite.Scheme{Hash: suite.SHA256, Key: dev.AttestationKey}
	allClean := true
	for _, p := range procs {
		ok, _ := img.VerifyTag(scheme, dev.AttestationKey, core.Options{}, reports[p.Name])
		fmt.Fprintf(out, "  %s: verified=%v\n", p.Name, ok)
		allClean = allClean && ok
	}
	fmt.Fprintf(out, "attack outcome: escaped=%v (cross-writes %d, blocked %d, persisted=%v)\n",
		allClean, col.CrossWrites, col.BlockedWrites, col.Persisted())
	return nil
}

// runLifecycle walks one device through the security services the
// paper's introduction says RA enables (§1): an infected device is
// caught by attestation, disinfected by a proof of secure erasure,
// re-provisioned with an authenticated software update, and finally
// attested clean against the new golden image.
func runLifecycle(out io.Writer) error {
	k := sim.NewKernel()
	g := mem.RandomGolden(16<<10, 1024, 1, rand.New(rand.NewPCG(99, 99)))
	m := mem.NewShared(g, mem.SharedConfig{Clock: k.Now})
	dev := device.New(device.Config{Kernel: k, Mem: m, Profile: costmodel.ODROIDXU4()})
	// One link carries both planes: attestation endpoints speak typed
	// protocol messages through tr, the update/erase services drive the
	// link directly.
	link := channel.New(channel.Config{Kernel: k, Latency: 2 * sim.Millisecond})
	tr := transport.NewSim(link)

	opts := core.Preset(core.SMART, suite.SHA256)
	golden := g.Bytes()
	v, err := verifier.New(verifier.Config{
		Kernel: k, Transport: tr,
		Scheme:  suite.Scheme{Hash: suite.SHA256, Key: dev.AttestationKey},
		PermKey: dev.AttestationKey,
		Image:   verifier.ImageOf(golden, 1024), Opts: opts,
	})
	if err != nil {
		return err
	}
	if _, err := prover.NewProver("prv", dev, tr, opts, 10); err != nil {
		return err
	}
	services.NewAgent("prv-svc", dev, link, 5)
	rom := append([]byte(nil), golden[:1024]...)
	mgr := services.NewManager("mgr", link, dev.AttestationKey, rom, 1024, 16<<10)

	attest := func(label string) {
		before := v.Counts()
		v.Challenge("prv")
		k.Run()
		fmt.Fprintf(out, "%-34s verdict=%v\n", label, v.Counts().Accepted > before.Accepted)
	}

	// 1. Device starts clean.
	attest("1. initial attestation:")

	// 2. Malware lands.
	if err := malware.NewTransient(dev, 50).Infect(9); err != nil {
		return err
	}
	attest("2. after infection:")

	// 3. Disinfect with a proof of secure erasure (wipes everything
	//    writable — malware included).
	var eraseOK bool
	mgr.RequestErasure("prv-svc", func(ok bool, p *services.EraseProof) {
		eraseOK = ok
		fmt.Fprintf(out, "%-34s proof-ok=%v wiped=%d bytes in %v\n",
			"3. proof of secure erasure:", ok, p.Bytes, p.TE.Sub(p.TS))
	})
	k.Run()
	if !eraseOK {
		return errors.New("lifecycle: erasure proof rejected")
	}

	// 4. Re-provision: push the original content back block by block
	//    as authenticated updates, then install new firmware in block 5.
	for b := 1; b < 16; b++ {
		mgr.PushUpdate("prv-svc", b, golden[b*1024:(b+1)*1024], nil)
	}
	newFirmware := bytes.Repeat([]byte{0xF1}, 1024)
	var ack *services.UpdateAck
	mgr.PushUpdate("prv-svc", 5, newFirmware, func(a *services.UpdateAck) { ack = a })
	k.Run()
	fmt.Fprintf(out, "%-34s installed=%v\n", "4. authenticated updates:", ack != nil && ack.OK)

	// 5. The verifier moves its golden image forward and the device
	//    attests clean against the NEW reference.
	newGolden := append([]byte(nil), golden...)
	copy(newGolden[5*1024:6*1024], newFirmware)
	v.Image = verifier.ImageOf(newGolden, 1024)
	attest("5. attestation vs new golden:")

	fmt.Fprintln(out, "\nRA as a foundation: detection -> provable erasure -> authenticated")
	fmt.Fprintln(out, "update -> fresh root of trust, exactly the service stack of §1.")
	return nil
}
