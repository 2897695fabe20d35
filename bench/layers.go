package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"time"

	"saferatt"
	"saferatt/internal/core"
	"saferatt/internal/experiments"
	"saferatt/internal/inccache"
	"saferatt/internal/mem"
	"saferatt/internal/rattd"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
	"saferatt/internal/swarm"
	"saferatt/internal/transport"
	"saferatt/internal/verifier"
)

// Per-layer microbenchmarks. Every layer is measured from outside, by
// timing calls into its public API from this package; a traced run of
// a workload runs the groups of the layers that workload exercises.

// timeOp calls fn — which performs per operations — repeatedly for
// about budget and returns the median nanoseconds per operation over
// the calls, with the number of calls timed. fn should take tens of
// microseconds at least, so the two clock reads around it vanish.
func timeOp(budget time.Duration, per int, fn func()) (float64, int) {
	fn() // warm caches and pools
	var ns []float64
	for deadline := time.Now().Add(budget); len(ns) < 5 || time.Now().Before(deadline); {
		start := time.Now()
		fn()
		ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(per))
	}
	return median(ns), len(ns)
}

// allocsPer runs fn once and returns heap allocations and bytes per
// unit of the n units it performed.
func allocsPer(n int, fn func()) (allocs, bytesPer float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// sink keeps results alive so the compiler cannot drop a measured call.
var sink atomic.Uint64

// ---- transport ----

func runTransportLayers(cfg runConfig, res *runResult) {
	budget := cfg.sz.layerBudget
	fl, err := newFleet(cfg.Seed, 16, 4<<10, 256, 4)
	if err != nil {
		panic(err)
	}
	b, _ := fl.bundle(0)
	m := transport.Msg{From: fl.names[0], To: "rattd", Kind: transport.KindCollection, ReqID: 7, Reports: b}

	// One 4-report collection frame through the codec.
	const loop = 64
	var buf []byte
	ns, n := timeOp(budget, loop, func() {
		for i := 0; i < loop; i++ {
			buf = transport.AppendFrame(buf[:0], &m)
		}
	})
	res.put("transport.encode_ns_per_frame", ns, n)
	frame := transport.AppendFrame(nil, &m)
	var f transport.Frame
	decode := func() {
		for i := 0; i < loop; i++ {
			if err := transport.DecodeFrameInto(frame, &f); err != nil {
				panic(err)
			}
		}
	}
	ns, n = timeOp(budget, loop, decode)
	res.put("transport.decode_ns_per_frame", ns, n)
	allocs, _ := allocsPer(loop, decode)
	res.put("transport.decode_allocs_per_frame", allocs, loop)

	// Sixteen of them in one batch frame.
	msgs := make([]*transport.Msg, 16)
	for i := range msgs {
		mm := m
		mm.From, mm.ReqID = fl.names[i], uint64(100+i)
		msgs[i] = &mm
	}
	ns, n = timeOp(budget, 8*len(msgs), func() {
		for i := 0; i < 8; i++ {
			buf = transport.AppendBatch(buf[:0], 9, msgs)
		}
	})
	res.put("transport.batch_encode_ns_per_sub", ns, n)
	batch := transport.AppendBatch(nil, 9, msgs)
	ns, n = timeOp(budget, 8*len(msgs), func() {
		for i := 0; i < 8; i++ {
			if err := transport.DecodeFrameInto(batch, &f); err != nil {
				panic(err)
			}
		}
	})
	res.put("transport.batch_decode_ns_per_sub", ns, n)

	// Net -> Net over loopback inside this process: serial round trips,
	// then a one-way burst.
	srv, err := transport.Listen(transport.NetConfig{})
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	cl, err := transport.Dial(srv.Addr().String(), transport.NetConfig{})
	if err != nil {
		panic(err)
	}
	defer cl.Close()
	var got atomic.Int64
	pong := make(chan struct{}, 1)
	if err := srv.BindFrames("srv", func(f *transport.Frame) {
		if f.Kind == transport.KindHello {
			srv.Send(transport.Msg{From: "srv", To: f.From, Kind: transport.KindVerdict, OK: true})
		} else {
			got.Add(1)
		}
	}); err != nil {
		panic(err)
	}
	if err := cl.BindFrames("cl", func(*transport.Frame) { pong <- struct{}{} }); err != nil {
		panic(err)
	}
	rtts := make([]float64, 0, 256)
	trips := int(budget / (50 * time.Microsecond))
	if trips < 30 {
		trips = 30
	}
	for i := 0; i < trips; i++ {
		start := time.Now()
		cl.Send(transport.Msg{From: "cl", To: "srv", Kind: transport.KindHello})
		select {
		case <-pong:
			rtts = append(rtts, float64(time.Since(start).Nanoseconds())/1e3)
		case <-time.After(2 * time.Second):
		}
	}
	res.put("transport.net_rtt_p50_us", median(rtts), len(rtts))

	// One-way flood of small reliable messages, at most 256 of them
	// undelivered at a time so the socket buffer never overflows.
	burst := 8 * trips
	start := time.Now()
	for i := 0; i < burst; i++ {
		for got.Load() < int64(i-256) && time.Since(start) < 5*time.Second {
			runtime.Gosched()
		}
		cl.Send(transport.Msg{From: "cl", To: "srv", Kind: transport.KindRelease})
	}
	for got.Load() < int64(burst) && time.Since(start) < 5*time.Second {
		runtime.Gosched()
	}
	res.put("transport.net_oneway_ns_per_msg", float64(time.Since(start).Nanoseconds())/float64(burst), int(got.Load()))
}

// runLocalLayer times transport.Local: a verdict-sized message to a
// bound no-op handler, the whole of the transport inproc_mixed uses.
func runLocalLayer(cfg runConfig, res *runResult) {
	loc := transport.NewLocal()
	loc.Bind("p", func(transport.Msg) {})
	m := transport.Msg{From: "rattd", To: "p", Kind: transport.KindVerdict, OK: true}
	v, n := timeOp(cfg.sz.layerBudget, 1024, func() {
		for i := 0; i < 1024; i++ {
			loc.Send(m)
		}
	})
	res.put("transport.local_send_ns", v, n)
}

// ---- rattd + verifier ----

// localServer is a Server over transport.Local whose provers all share
// one no-op client handler.
func localServer(cfg rattd.Config, names []string) *rattd.Server {
	loc := transport.NewLocal()
	srv, err := rattd.Serve(loc, cfg)
	if err != nil {
		panic(err)
	}
	for _, n := range names {
		loc.Bind(n, func(transport.Msg) {})
	}
	return srv
}

func runDaemonLayers(cfg runConfig, res *runResult, workload string) error {
	budget := cfg.sz.layerBudget
	provers := cfg.sz.ckptFleet / 50
	fl, err := newFleet(cfg.Seed, provers, 4<<10, 256, 4)
	if err != nil {
		return err
	}
	names := fl.names
	srv := localServer(rattd.Config{Ref: fl.image, BlockSize: fl.block}, names)
	defer srv.Close()

	// Fresh collections, history 4: one pass over the fleet per round.
	round := 0
	pass := func(kind transport.Kind, to []string, reports []core.Report) func() {
		return func() {
			for _, name := range to {
				srv.Ingest(name, kind, reports)
			}
		}
	}
	nextRound := func() []core.Report {
		b, err := fl.bundle(round)
		if err != nil {
			panic(err)
		}
		round++
		return values(b)
	}
	var cur []core.Report
	var ns []float64
	for deadline := time.Now().Add(budget); len(ns) < 5 || time.Now().Before(deadline); {
		cur = nextRound()
		start := time.Now()
		pass(transport.KindCollection, names, cur)()
		ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(4*provers))
	}
	res.put("rattd.ingest_collection_ns_per_report", median(ns), len(ns))
	cur = nextRound()
	allocs, bytesPer := allocsPer(4*provers, pass(transport.KindCollection, names, cur))
	res.put("rattd.ingest_allocs_per_report", allocs, 4*provers)
	res.put("rattd.ingest_alloc_b_per_report", bytesPer, 4*provers)
	if workload == wWireErasmus {
		// The same traffic the child daemon verified: its hit ratio.
		bs := srv.BatchStats()
		res.put("verifier.batch_hit_ratio", 1-float64(bs.Computed)/max(float64(bs.Reports), 1), int(bs.Reports))
	}

	// Replays of the round just accepted; forged tags on fresh counters
	// from enrolled names; the same from names never seen.
	v, n := timeOp(budget, 4*provers, pass(transport.KindCollection, names, cur))
	res.put("rattd.ingest_replay_ns_per_report", v, n)
	bad := forged(nextRound())
	v, n = timeOp(budget, 4*provers, pass(transport.KindCollection, names, bad))
	res.put("rattd.ingest_forged_ns_per_report", v, n)
	ns = ns[:0]
	for i := 0; i < 5; i++ {
		spoof := make([]string, provers)
		for j := range spoof {
			spoof[j] = fmt.Sprintf("spoof-%d-%d", i, j)
		}
		start := time.Now()
		pass(transport.KindCollection, spoof, bad)()
		ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(4*provers))
	}
	res.put("rattd.ingest_spoofed_ns_per_report", median(ns), len(ns))

	// History 1: per-bundle against per-report overhead.
	fl1, err := newFleet(cfg.Seed, provers, 4<<10, 256, 1)
	if err != nil {
		return err
	}
	srv1 := localServer(rattd.Config{Ref: fl1.image, BlockSize: fl1.block}, fl1.names)
	defer srv1.Close()
	ns = ns[:0]
	for r := 0; r < 8; r++ {
		b, err := fl1.bundle(r)
		if err != nil {
			return err
		}
		vals := values(b)
		start := time.Now()
		for _, name := range fl1.names {
			srv1.Ingest(name, transport.KindCollection, vals)
		}
		ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(provers))
	}
	res.put("rattd.ingest_collection_h1_ns_per_report", median(ns), len(ns))

	// SeED: per-prover nonce, so every report computes its expected tag.
	seeds := make([][]core.Report, 0, provers)
	for _, name := range names {
		p, err := rattd.NewProver(name, rattd.DefaultKey, fl.image, fl.block)
		if err != nil {
			return err
		}
		rep, err := p.SeedReport(1)
		if err != nil {
			return err
		}
		seeds = append(seeds, []core.Report{*rep})
	}
	ns = ns[:0]
	for i, name := range names {
		start := time.Now()
		srv.Ingest(name, transport.KindSeedReport, seeds[i])
		ns = append(ns, float64(time.Since(start).Nanoseconds()))
	}
	res.put("rattd.ingest_seed_ns_per_report", median(ns), len(ns))

	// Named images: a two-class registry, provers presenting their class.
	set := verifier.NewImageSet(verifier.ImageSetConfig{KeepEpochs: 64})
	if _, err := set.Add("sensor", verifier.ImageOf(fl.image, fl.block)); err != nil {
		return err
	}
	if _, err := set.Add("gateway", verifier.ImageOf(rattd.GoldenImage(cfg.Seed+1, 4<<10, 256), 256)); err != nil {
		return err
	}
	srvN := localServer(rattd.Config{Images: set, BlockSize: fl.block}, names)
	defer srvN.Close()
	ns = ns[:0]
	for r := 0; r < 8; r++ {
		b, _ := fl.bundle(r)
		vals := values(b)
		start := time.Now()
		for _, name := range names {
			srvN.IngestImage(name, transport.KindCollection, "sensor", vals)
		}
		ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(4*provers))
	}
	res.put("rattd.ingest_named_image_ns_per_report", median(ns), len(ns))
	if c := srvN.Counts(); c.Rejected != 0 {
		return fmt.Errorf("named-image ingest rejected %d reports", c.Rejected)
	}

	// SMART: hello -> challenge -> report against the 64 KiB default
	// image; only the two Ingest calls are timed, not the prover's MAC.
	image64 := rattd.GoldenImage(cfg.Seed, 64<<10, 1<<10)
	loc := transport.NewLocal()
	srvS, err := rattd.Serve(loc, rattd.Config{Ref: image64, BlockSize: 1 << 10})
	if err != nil {
		return err
	}
	defer srvS.Close()
	var nonce []byte
	okVerdicts := 0
	loc.Bind("smart-prover", func(m transport.Msg) {
		switch m.Kind {
		case transport.KindChallenge:
			nonce = m.Nonce
		case transport.KindVerdict:
			if m.OK {
				okVerdicts++
			}
		}
	})
	prv, err := rattd.NewProver("smart-prover", rattd.DefaultKey, image64, 1<<10)
	if err != nil {
		return err
	}
	exchanges := int(budget/(100*time.Microsecond)) + 20
	ns = ns[:0]
	for i := 0; i < exchanges; i++ {
		start := time.Now()
		srvS.Ingest(prv.Name, transport.KindHello, nil)
		mid := time.Since(start)
		rep, err := prv.Respond(nonce)
		if err != nil {
			return err
		}
		start = time.Now()
		srvS.Ingest(prv.Name, transport.KindReport, []core.Report{*rep})
		ns = append(ns, float64((mid+time.Since(start)).Nanoseconds())/1e3)
	}
	res.put("rattd.ingest_smart_us_per_exchange", median(ns), len(ns))
	if okVerdicts != exchanges {
		return fmt.Errorf("in-process SMART: %d of %d exchanges verified", okVerdicts, exchanges)
	}
	if workload == wWireSmart {
		bs := srvS.BatchStats()
		res.put("verifier.batch_hit_ratio", 1-float64(bs.Computed)/max(float64(bs.Reports), 1), int(bs.Reports))
	}

	// Freshness window and routing primitives.
	var w rattd.DedupWindow
	ctr := uint64(0)
	v, n = timeOp(budget, 1024, func() {
		for i := 0; i < 1024; i++ {
			ctr++
			if !w.Seen(ctr) {
				w.Add(ctr)
			}
		}
	})
	res.put("rattd.window_ns_per_op", v, n)
	v, n = timeOp(budget, len(names), func() {
		s := 0
		for _, name := range names {
			s += rattd.ShardFor(name, 8)
		}
		sink.Add(uint64(s))
	})
	res.put("rattd.shardfor_ns", v, n)

	// verifier.Batch directly: a repeated nonce hits, a unique one
	// computes the expected tag and publishes it copy-on-write.
	hit := cur[0]
	batch := verifier.NewBatch(suite.SHA256, verifier.ImageOf(fl.image, fl.block))
	batch.KeepEpochs = 64
	v, n = timeOp(budget, 1024, func() {
		for i := 0; i < 1024; i++ {
			if ok, err := batch.Verify(rattd.DefaultKey, &hit, false); err != nil || !ok {
				panic(fmt.Sprintf("batch hit: ok=%v err=%v", ok, err))
			}
		}
	})
	res.put("verifier.batch_hit_ns", v, n)
	miss := func(b *verifier.Batch, tmpl core.Report) func() {
		k := uint64(0)
		return func() {
			for i := 0; i < 8; i++ {
				k++
				r := tmpl
				r.Nonce = core.PRF(rattd.DefaultKey, "bench-miss", k)
				if _, err := b.Verify(rattd.DefaultKey, &r, false); err != nil {
					panic(err)
				}
			}
		}
	}
	v, n = timeOp(budget, 8, miss(batch, hit))
	res.put("verifier.batch_miss_us_4k", v/1e3, n)
	batch64 := verifier.NewBatch(suite.SHA256, verifier.ImageOf(image64, 1<<10))
	batch64.KeepEpochs = 64
	rep64, err := prv.Respond([]byte("bench-nonce-64k"))
	if err != nil {
		return err
	}
	v, n = timeOp(budget, 8, miss(batch64, *rep64))
	res.put("verifier.batch_miss_us_64k", v/1e3, n)
	id := verifier.ImageID{Name: "sensor"}
	v, n = timeOp(budget, 1024, func() {
		for i := 0; i < 1024; i++ {
			if ok, err := set.Verify(rattd.DefaultKey, id, &hit, false); err != nil || !ok {
				panic(fmt.Sprintf("imageset verify: ok=%v err=%v", ok, err))
			}
		}
	})
	res.put("verifier.imageset_verify_ns", v, n)
	return nil
}

// ---- rattd persistence ----

func runPersistenceLayers(cfg runConfig, res *runResult) {
	provers := cfg.sz.ckptFleet
	fl, err := newFleet(cfg.Seed, provers, 4<<10, 256, 4)
	if err != nil {
		panic(err)
	}
	// A fleet restored from a synthetic checkpoint: real per-prover
	// state without running a round of crypto per prover. Every window
	// has accepted round 0, so round 1's template verifies fresh.
	var win rattd.DedupWindow
	for c := uint64(1); c <= 4; c++ {
		win.Add(c)
	}
	cp := &rattd.Checkpoint{
		Lease:    rattd.EpochLease{Lo: 1, Hi: 1 << 40},
		NonceCtr: 1,
		Erasmus:  make(map[string]rattd.DedupWindow, provers),
		Seed:     map[string]uint64{},
	}
	for _, name := range fl.names {
		cp.Erasmus[name] = win
	}
	srv := localServer(rattd.Config{Ref: fl.image, BlockSize: fl.block}, nil)
	defer srv.Close()
	srv.Restore(cp)

	var fullNS []float64
	var fullBytes int64
	for i := 0; i < 3; i++ {
		start := time.Now()
		st, err := srv.WriteCheckpoint(io.Discard, rattd.SnapshotOptions{ChainID: 1})
		if err != nil {
			panic(err)
		}
		fullNS = append(fullNS, float64(time.Since(start).Nanoseconds()))
		fullBytes = st.Bytes
	}
	res.put("rattd.checkpoint_full_mb_per_s", float64(fullBytes)/1e6/(median(fullNS)/1e9), len(fullNS))
	res.put("rattd.checkpoint_bytes_per_prover", float64(fullBytes)/float64(provers), provers)

	// A base and eight deltas with 1% of the fleet dirtied before each.
	var base bytes.Buffer
	if _, err := srv.WriteCheckpoint(&base, rattd.SnapshotOptions{ChainID: 1}); err != nil {
		panic(err)
	}
	var deltas [][]byte
	var deltaMS []float64
	for seq := uint32(1); seq <= 8; seq++ {
		b, err := fl.bundle(int(seq))
		if err != nil {
			panic(err)
		}
		vals := values(b)
		for i := int(seq); i < provers; i += 100 {
			srv.Ingest(fl.names[i], transport.KindCollection, vals)
		}
		var buf bytes.Buffer
		start := time.Now()
		if _, err := srv.WriteCheckpoint(&buf, rattd.SnapshotOptions{Delta: true, ChainID: 1, Seq: seq}); err != nil {
			panic(err)
		}
		deltaMS = append(deltaMS, float64(time.Since(start).Nanoseconds())/1e6)
		deltas = append(deltas, buf.Bytes())
	}
	res.put("rattd.checkpoint_delta_ms", median(deltaMS), len(deltaMS))

	var restoreMS []float64
	for i := 0; i < 3; i++ {
		fresh := localServer(rattd.Config{Ref: fl.image, BlockSize: fl.block}, nil)
		start := time.Now()
		got, chain, err := rattd.DecodeChain(base.Bytes(), deltas...)
		if err != nil || chain.Applied != len(deltas) {
			panic(fmt.Sprintf("restore chain: applied %d of %d: %v", chain.Applied, len(deltas), err))
		}
		fresh.Restore(got)
		restoreMS = append(restoreMS, float64(time.Since(start).Nanoseconds())/1e6)
		if fresh.Enrolled() != provers {
			panic(fmt.Sprintf("restore chain: %d of %d provers", fresh.Enrolled(), provers))
		}
		fresh.Close()
	}
	res.put("rattd.restore_chain_ms", median(restoreMS), len(restoreMS))
}

// ---- core / suite ----

func runCoreLayers(cfg runConfig, res *runResult) {
	budget := cfg.sz.layerBudget
	key := rattd.DefaultKey
	label := []byte("bench-label")
	var out []byte
	v, n := timeOp(budget, 256, func() {
		for i := 0; i < 256; i++ {
			out = core.AppendPRF(out[:0], key, label, uint64(i))
		}
	})
	res.put("core.prf_ns", v, n)
	v, n = timeOp(budget, 256, func() {
		for i := 0; i < 256; i++ {
			out, _ = suite.AppendMAC(out[:0], suite.SHA256, key, label, label)
		}
	})
	res.put("suite.mac_ns", v, n)

	// Fig. 2's axis: bytes through each hash, and through the canonical
	// measurement stream into a keyed tagger.
	image := rattd.GoldenImage(cfg.Seed, 64<<10, 1<<10)
	for _, hh := range []struct {
		id   suite.HashID
		name string
	}{{suite.SHA256, "sha256"}, {suite.BLAKE2b, "blake2b"}, {suite.BLAKE2s, "blake2s"}} {
		h, err := suite.NewHash(hh.id)
		if err != nil {
			panic(err)
		}
		sum := make([]byte, 0, 64)
		v, n = timeOp(budget, 1, func() {
			h.Reset()
			h.Write(image)
			sum = h.Sum(sum[:0])
		})
		res.put("suite.hash_mb_per_s."+hh.name, float64(len(image))/1e6/(v/1e9), n)
	}
	nonce := []byte("bench-nonce")
	blocks := len(image) >> 10
	var order []int
	v, n = timeOp(budget, 16*blocks, func() {
		for i := 0; i < 16; i++ {
			order = core.AppendOrderRegion(order[:0], key, nonce, i, 0, blocks, true)
		}
	})
	res.put("core.order_ns_per_block", v, n)
	scheme := suite.Scheme{Hash: suite.SHA256, Key: key}
	v, n = timeOp(budget, 1, func() {
		t, err := scheme.AcquireTagger()
		if err != nil {
			panic(err)
		}
		core.ExpectedStream(t, image, 1<<10, nonce, 0, order)
		if _, err := t.Tag(); err != nil {
			panic(err)
		}
		scheme.ReleaseTagger(t)
	})
	res.put("core.expected_stream_mb_per_s", float64(len(image))/1e6/(v/1e9), n)
}

// ---- simulator stack ----

func runSimLayers(cfg runConfig, res *runResult) {
	budget := cfg.sz.layerBudget

	k := sim.NewKernel()
	nop := func() {}
	v, n := timeOp(budget, 1024, func() {
		for i := 0; i < 1024; i++ {
			k.Schedule(1, nop)
			k.Step()
		}
	})
	res.put("sim.schedule_ns_per_event", v, n)
	tm := k.NewTimer(nop)
	v, n = timeOp(budget, 1024, func() {
		for i := 0; i < 1024; i++ {
			tm.Arm(1)
			k.Step()
		}
	})
	res.put("sim.timer_arm_ns", v, n)

	// Copy-on-write memory: the first write to each block of a fresh
	// view materializes it.
	const size, block = 64 << 10, 256
	golden := mem.RandomGolden(size, block, 1, rand.New(rand.NewPCG(cfg.Seed, 0xbe)))
	one := []byte{0xa5}
	v, n = timeOp(budget, size/block-1, func() {
		m := mem.NewShared(golden, mem.SharedConfig{})
		for b := 1; b < size/block; b++ {
			if err := m.Write(b*block, one); err != nil {
				panic(err)
			}
		}
	})
	res.put("mem.cow_write_ns", v, n)
	flat := mem.New(mem.Config{Size: size, BlockSize: block, ROMBlocks: 1})
	flat.FillRandom(rand.New(rand.NewPCG(cfg.Seed, 0xbf)))
	var snap []byte
	v, n = timeOp(budget, 1, func() { snap = flat.SnapshotInto(snap[:0]) })
	res.put("mem.snapshot_mb_per_s", float64(size)/1e6/(v/1e9), n)

	// Digest cache: a clean block hits; a written block is re-hashed.
	cache := inccache.NewMem(flat, inccache.DigestHash(suite.SHA256))
	for b := 0; b < size/block; b++ {
		cache.Digest(b)
	}
	v, n = timeOp(budget, size/block, func() {
		for b := 0; b < size/block; b++ {
			sink.Add(uint64(cache.Digest(b)[0]))
		}
	})
	res.put("inccache.digest_hit_ns", v, n)
	v, n = timeOp(budget, size/block-1, func() {
		for b := 1; b < size/block; b++ {
			if err := flat.Write(b*block, one); err != nil {
				panic(err)
			}
			sink.Add(uint64(cache.Digest(b)[0]))
		}
	})
	res.put("inccache.remeasure_ns_per_dirty_block", v, n)

	// One simulated 256-block measurement session, per block of host time.
	seed := cfg.Seed
	v, n = timeOp(budget, 256, func() {
		seed++
		s := saferatt.NewScenario(saferatt.ScenarioConfig{MemSize: 64 << 10, BlockSize: 256, Seed: seed})
		if r := s.AttestOnce(); !r.OK {
			panic("clean attestation failed: " + r.Reason)
		}
	})
	res.put("core.measurement_ns_per_block", v, n)

	// The sim-stack verifier's per-report check.
	opts := core.Preset(core.SMART, suite.SHA256)
	w := experiments.NewWorld(experiments.WorldConfig{
		EngineConfig: experiments.EngineConfig{Seed: cfg.Seed, NoTrace: true},
		MemSize:      4 << 10, BlockSize: 256, ROMBlocks: 1, Opts: opts,
	})
	reports := w.RunSessionToEnd(opts, []byte("bench-checktag"), 5, core.Hooks{})
	v, n = timeOp(budget, 64, func() {
		for i := 0; i < 64; i++ {
			if ok, err := w.Ver.CheckTag(reports[0]); err != nil || !ok {
				panic(fmt.Sprintf("CheckTag: ok=%v err=%v", ok, err))
			}
		}
	})
	res.put("verifier.sim_checktag_ns", v, n)

	// Swarm engines: a self-measuring fleet per kernel event, and a
	// collection round per device.
	devices := cfg.sz.simE12Devices / 2
	var evNS []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		r, err := swarm.RunSelfFleet(swarm.SelfFleetConfig{
			EngineConfig: swarm.EngineConfig{Seed: cfg.Seed, Parallelism: simParallelism},
			Devices:      devices, Mode: swarm.SelfErasmus, TM: e12TM, TC: e12TC, Horizon: sim.Hour,
		})
		if err != nil {
			panic(err)
		}
		evNS = append(evNS, float64(time.Since(start).Nanoseconds())/float64(r.Events))
	}
	res.put("swarm.selffleet_ns_per_event", median(evNS), len(evNS))
	var devNS []float64
	for i := 0; i < 3; i++ {
		s, err := swarm.NewSharded(swarm.ShardedConfig{
			EngineConfig: swarm.EngineConfig{Seed: cfg.Seed + uint64(i), Parallelism: simParallelism},
			Devices:      devices, MemSize: 16 << 10, BlockSize: 256,
		})
		if err != nil {
			panic(err)
		}
		start := time.Now()
		r, err := s.Round([]byte("bench-round"))
		if err != nil || !r.Healthy() {
			panic(fmt.Sprintf("swarm round: healthy=%v err=%v", r != nil && r.Healthy(), err))
		}
		devNS = append(devNS, float64(time.Since(start).Nanoseconds())/float64(devices))
	}
	res.put("swarm.round_ns_per_device", median(devNS), len(devNS))

	// Two workers against one on the same E6 cell.
	cell := func(par int) float64 {
		var ns []float64
		for i := 0; i < 5; i++ {
			start := time.Now()
			experiments.E6SMARM(experiments.E6Config{BlockCounts: []int{32}, Rounds: []int{5},
				Trials: 8 * cfg.sz.simE6Trials, Seed: cfg.Seed, Parallelism: par})
			ns = append(ns, float64(time.Since(start).Nanoseconds()))
		}
		return median(ns)
	}
	res.put("parallel.speedup_2", cell(1)/cell(2), 5)
}
