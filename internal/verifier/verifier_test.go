package verifier

import (
	"math/rand/v2"
	"testing"

	"saferatt/internal/channel"
	"saferatt/internal/core"
	"saferatt/internal/costmodel"
	"saferatt/internal/device"
	"saferatt/internal/mem"
	"saferatt/internal/prover"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
	"saferatt/internal/trace"
	"saferatt/internal/transport"
)

// world is a full verifier+link+prover-device fixture.
type world struct {
	k    *sim.Kernel
	m    *mem.Memory
	dev  *device.Device
	link *channel.Link
	tr   *transport.Sim
	v    *Verifier
}

func newWorld(t *testing.T, opts core.Options, linkCfg channel.Config) *world {
	t.Helper()
	k := sim.NewKernel()
	m := mem.New(mem.Config{Size: 4096, BlockSize: 256, ROMBlocks: 1, Clock: k.Now, LogWrites: true})
	m.FillRandom(rand.New(rand.NewPCG(1, 1)))
	dev := device.New(device.Config{Kernel: k, Mem: m, Profile: costmodel.ODROIDXU4(), Trace: &trace.Log{}})
	linkCfg.Kernel = k
	link := channel.New(linkCfg)
	tr := transport.NewSim(link)
	v, err := New(Config{
		Kernel: k, Transport: tr,
		Scheme:  suite.Scheme{Hash: opts.Hash, Key: dev.AttestationKey},
		PermKey: dev.AttestationKey,
		Image:   ImageOf(m.Snapshot(), m.BlockSize()),
		Opts:    opts,
		Trace:   dev.Trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &world{k: k, m: m, dev: dev, link: link, tr: tr, v: v}
}

func TestConfigValidation(t *testing.T) {
	k := sim.NewKernel()
	tr := transport.NewSim(channel.New(channel.Config{Kernel: k}))
	good := Config{Kernel: k, Transport: tr, Scheme: suite.Scheme{Hash: suite.SHA256, Key: []byte("k")}, Image: ImageOf([]byte{1}, 1)}
	if _, err := New(good); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	for _, bad := range []Config{
		{Transport: tr, Scheme: good.Scheme, Image: good.Image},
		{Kernel: k, Scheme: good.Scheme, Image: good.Image},
		{Kernel: k, Transport: tr, Image: good.Image},
		{Kernel: k, Transport: tr, Scheme: good.Scheme},
	} {
		if _, err := New(bad); err == nil {
			t.Errorf("bad config accepted: %+v", bad)
		}
	}
}

func TestOnDemandRoundTripClean(t *testing.T) {
	opts := core.Preset(core.SMART, suite.SHA256)
	w := newWorld(t, opts, channel.Config{Latency: 5 * sim.Millisecond})
	_, err := prover.NewProver("prv", w.dev, w.tr, opts, 10)
	if err != nil {
		t.Fatal(err)
	}
	w.v.Challenge("prv")
	w.k.Run()

	rs := w.v.Results()
	if len(rs) != 1 || !rs[0].OK {
		t.Fatalf("clean device rejected: %+v", rs)
	}
	res := rs[0]
	c := w.v.Counts()
	if c.Accepted != 1 || c.Rejected != 0 {
		t.Fatalf("counts %+v", c)
	}
	// Freshness = now - t_s > 0 and bounded by round trip + MP time.
	if res.Freshness <= 0 {
		t.Fatalf("freshness %v", res.Freshness)
	}
	// Figure 1 timeline events all present and ordered.
	tl := w.dev.Trace
	kinds := []trace.Kind{trace.KindRequestSent, trace.KindRequestReceived,
		trace.KindMeasureStart, trace.KindMeasureEnd, trace.KindReportSent,
		trace.KindReportReceived, trace.KindReportVerified}
	var prev sim.Time
	for _, kind := range kinds {
		ev, ok := tl.First(kind)
		if !ok {
			t.Fatalf("missing timeline event %s", kind)
		}
		if ev.At < prev {
			t.Fatalf("timeline out of order at %s", kind)
		}
		prev = ev.At
	}
}

func TestOnDemandDetectsTamperedMemory(t *testing.T) {
	opts := core.Preset(core.SMART, suite.SHA256)
	w := newWorld(t, opts, channel.Config{})
	if _, err := prover.NewProver("prv", w.dev, w.tr, opts, 10); err != nil {
		t.Fatal(err)
	}
	// Persistent malware: corrupt a block and never move.
	if err := w.m.Poke(5*256+1, 0xAA); err != nil {
		t.Fatal(err)
	}
	w.v.Challenge("prv")
	w.k.Run()
	if w.v.Counts().Rejected != 1 {
		t.Fatal("tampered memory not detected")
	}
	if w.v.Results()[0].Reason == "" {
		t.Fatal("rejection without reason")
	}
}

func TestNonceMismatchRejected(t *testing.T) {
	opts := core.Preset(core.SMART, suite.SHA256)
	w := newWorld(t, opts, channel.Config{})
	w.v.Challenge("prv")
	// Forge a "report" with the wrong nonce from a fake prover.
	w.tr.Bind("prv", func(m transport.Msg) {
		if m.Kind == transport.KindChallenge {
			rep := &core.Report{Nonce: []byte("stale"), Tag: []byte{1}, BlockSize: 256, NumBlocks: 16}
			w.tr.Send(transport.Msg{From: "prv", To: "verifier", Kind: transport.KindReport, Reports: []*core.Report{rep}})
		}
	})
	w.k.Run()
	rs := w.v.Results()
	if len(rs) != 1 || rs[0].OK || rs[0].Reason != "nonce mismatch" {
		t.Fatalf("results %+v", rs)
	}
}

func TestUnsolicitedReportRejected(t *testing.T) {
	opts := core.Preset(core.SMART, suite.SHA256)
	w := newWorld(t, opts, channel.Config{})
	rep := &core.Report{Nonce: []byte("x"), BlockSize: 256, NumBlocks: 16}
	w.tr.Send(transport.Msg{From: "prv", To: "verifier", Kind: transport.KindReport, Reports: []*core.Report{rep}})
	w.k.Run()
	rs := w.v.Results()
	if len(rs) != 1 || rs[0].OK || rs[0].Reason != "unsolicited report" {
		t.Fatalf("results %+v", rs)
	}
}

func TestGeometryMismatchErrors(t *testing.T) {
	opts := core.Preset(core.SMART, suite.SHA256)
	w := newWorld(t, opts, channel.Config{})
	rep := &core.Report{Nonce: []byte("x"), BlockSize: 100, NumBlocks: 3}
	if _, err := w.v.CheckTag(rep); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

func TestSMARMMultiRoundVerifies(t *testing.T) {
	opts := core.Preset(core.SMARM, suite.SHA256)
	opts.Rounds = 3
	w := newWorld(t, opts, channel.Config{})
	if _, err := prover.NewProver("prv", w.dev, w.tr, opts, 10); err != nil {
		t.Fatal(err)
	}
	w.v.Challenge("prv")
	w.k.Run()
	c := w.v.Counts()
	if c.Accepted != 3 || c.Rejected != 0 {
		t.Fatalf("counts %+v, want 3 accepted rounds", c)
	}
}

func TestReleaseMessageReachesProver(t *testing.T) {
	opts := core.Preset(core.AllLockExt, suite.SHA256)
	w := newWorld(t, opts, channel.Config{Latency: sim.Millisecond})
	if _, err := prover.NewProver("prv", w.dev, w.tr, opts, 10); err != nil {
		t.Fatal(err)
	}
	w.v.Challenge("prv")
	w.k.Run()
	if got := w.m.LockedCount(); got != 16 {
		t.Fatalf("locked=%d after t_e, want 16 (extended locks held)", got)
	}
	w.tr.Send(transport.Msg{From: "verifier", To: "prv", Kind: transport.KindRelease}) // t_r
	w.k.Run()
	if got := w.m.LockedCount(); got != 1 {
		t.Fatalf("locked=%d after release, want 1 (ROM)", got)
	}
}

func TestErasmusCollectionValidation(t *testing.T) {
	opts := core.Preset(core.NoLock, suite.SHA256)
	w := newWorld(t, opts, channel.Config{Latency: sim.Millisecond})
	e, err := prover.NewErasmus("prv", w.dev, w.tr, opts, sim.Second, 10)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	w.k.At(sim.Time(5500*sim.Millisecond), func() { w.v.Collect("prv") })
	w.k.RunUntil(sim.Time(6 * sim.Second))
	e.Stop()
	w.k.Run()

	c := w.v.Counts()
	if c.Accepted != 5 || c.Rejected != 0 {
		t.Fatalf("counts %+v, want 5 accepted self-measurements", c)
	}
}

func TestCollectionReplayAndCadence(t *testing.T) {
	opts := core.Preset(core.NoLock, suite.SHA256)
	w := newWorld(t, opts, channel.Config{})
	e, _ := prover.NewErasmus("prv", w.dev, nil, opts, sim.Second, 10)
	e.Start()
	w.k.RunUntil(sim.Time(4 * sim.Second))
	e.Stop()
	w.k.Run()
	h := e.History()
	if len(h) < 3 {
		t.Fatalf("history %d", len(h))
	}

	pol := CollectionPolicy{TM: sim.Second}
	if !w.v.ValidateCollection("prv", h, pol) {
		t.Fatalf("honest history rejected: %+v", w.v.Results())
	}
	// Replaying the same history: every counter already seen.
	if w.v.ValidateCollection("prv", h, pol) {
		t.Fatal("replayed history accepted")
	}
	if w.v.Counts().Replays == 0 {
		t.Fatal("replays not counted")
	}

	// A compromised prover relabeling one honest report as a new
	// counter: nonce check must catch it.
	forged := *h[0]
	forged.Counter = 99
	w2 := newWorld(t, opts, channel.Config{})
	if w2.v.ValidateCollection("prv", []*core.Report{&forged}, CollectionPolicy{}) {
		t.Fatal("forged counter accepted")
	}
}

func TestCollectionCadenceViolation(t *testing.T) {
	opts := core.Preset(core.NoLock, suite.SHA256)
	w := newWorld(t, opts, channel.Config{})
	e, _ := prover.NewErasmus("prv", w.dev, nil, opts, sim.Second, 10)
	e.Start()
	w.k.RunUntil(sim.Time(3 * sim.Second))
	e.Stop()
	w.k.Run()
	h := e.History()
	// Drop the middle report but keep its counter gap: cadence check
	// must notice the gap is 2*TM for counter step 1... so forge the
	// counters to look adjacent.
	if len(h) != 3 {
		t.Fatalf("history %d", len(h))
	}
	gapped := []*core.Report{h[0], h[2]}
	// Counter 1 then 3: expected gap 2*TM, actual 2*TM -> fine.
	if !w.v.ValidateCollection("prv", gapped, CollectionPolicy{TM: sim.Second}) {
		t.Fatal("legitimate counter gap rejected")
	}
}

func TestQoAOf(t *testing.T) {
	mk := func(ts sim.Time) *core.Report { return &core.Report{TS: ts} }
	reports := []*core.Report{mk(0), mk(sim.Time(sim.Second)), mk(sim.Time(3 * sim.Second))}
	q := QoAOf(reports, sim.Time(5*sim.Second))
	if q.Measurements != 3 {
		t.Fatal("measurements")
	}
	if q.MeanTM != 1500*sim.Millisecond {
		t.Fatalf("MeanTM %v", q.MeanTM)
	}
	if q.WorstGap != 2*sim.Second {
		t.Fatalf("WorstGap %v", q.WorstGap)
	}
	if q.Staleness != 2*sim.Second {
		t.Fatalf("Staleness %v", q.Staleness)
	}
	empty := QoAOf(nil, 0)
	if empty.Measurements != 0 {
		t.Fatal("empty")
	}
}

func TestSeEDMonitorAcceptsAndWatchdogs(t *testing.T) {
	opts := core.Preset(core.NoLock, suite.SHA256)
	// Adversary drops the 2nd report.
	drops := 0
	adv := channel.AdversaryFunc(func(m channel.Message) channel.Verdict {
		if m.Kind == transport.KindSeedReport.String() {
			drops++
			if drops == 2 {
				return channel.Drop
			}
		}
		return channel.Deliver
	})
	w := newWorld(t, opts, channel.Config{Adv: adv})
	seed := []byte("shared")
	p, err := prover.NewSeED("prv", w.dev, w.tr, opts, seed, sim.Second, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	w.v.MonitorSeED("prv", seed, sim.Second, 0, 0, 2*sim.Second)
	p.Start()
	w.k.RunUntil(sim.Time(10 * sim.Second))
	p.Stop()
	w.k.RunUntil(sim.Time(20 * sim.Second)) // let watchdogs fire

	c := w.v.Counts()
	if c.Accepted < 5 {
		t.Fatalf("accepted %d, want >=5", c.Accepted)
	}
	if c.Missing == 0 {
		t.Fatal("dropped report not flagged missing by watchdog")
	}
}

func TestSeEDReplayRejected(t *testing.T) {
	opts := core.Preset(core.NoLock, suite.SHA256)
	// Adversary records every report and replays the first one later.
	var captured []transport.Msg
	adv := channel.AdversaryFunc(func(cm channel.Message) channel.Verdict {
		if m, ok := transport.MsgOf(cm); ok && m.Kind == transport.KindSeedReport && m.From == "prv" {
			captured = append(captured, m)
		}
		return channel.Deliver
	})
	w := newWorld(t, opts, channel.Config{Adv: adv})
	seed := []byte("shared")
	p, _ := prover.NewSeED("prv", w.dev, w.tr, opts, seed, sim.Second, 0, 10)
	w.v.MonitorSeED("prv", seed, sim.Second, 0, 0, 5*sim.Second)
	p.Start()
	w.k.RunUntil(sim.Time(3500 * sim.Millisecond))
	p.Stop()
	// Replay the first captured report (from a spoofed source).
	if len(captured) == 0 {
		t.Fatal("nothing captured")
	}
	w.tr.Send(captured[0])
	w.k.RunUntil(sim.Time(4 * sim.Second))

	if w.v.Counts().Replays == 0 {
		t.Fatal("replayed SeED report accepted")
	}
}

func TestSignatureSchemeVerification(t *testing.T) {
	opts := core.Preset(core.SMART, suite.SHA256)
	opts.Signer = suite.ECDSA256
	k := sim.NewKernel()
	m := mem.New(mem.Config{Size: 2048, BlockSize: 256, Clock: k.Now})
	m.FillRandom(rand.New(rand.NewPCG(3, 3)))
	dev := device.New(device.Config{Kernel: k, Mem: m, Profile: costmodel.ODROIDXU4()})
	tr := transport.NewSim(channel.New(channel.Config{Kernel: k}))
	sg, err := suite.NewSigner(suite.ECDSA256)
	if err != nil {
		t.Fatal(err)
	}
	v, err := New(Config{
		Kernel: k, Transport: tr,
		Scheme:  suite.Scheme{Hash: suite.SHA256, Signer: sg},
		PermKey: dev.AttestationKey,
		Image:   ImageOf(m.Snapshot(), m.BlockSize()),
		Opts:    opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prover.NewProver("prv", dev, tr, opts, 10); err != nil {
		t.Fatal(err)
	}
	v.Challenge("prv")
	k.Run()
	if rs := v.Results(); len(rs) != 1 || !rs[0].OK {
		t.Fatalf("signature-mode report rejected: %+v", rs)
	}
}

func TestDataRegionEndToEnd(t *testing.T) {
	// §2.3: the prover zeroes its volatile data region before MP; the
	// verifier expects zeros there and the golden image elsewhere.
	opts := core.Preset(core.NoLock, suite.SHA256)
	opts.Data = core.DataRegion{Blocks: []int{9, 10}, Policy: core.DataZeroed}
	w := newWorld(t, opts, channel.Config{})
	if _, err := prover.NewProver("prv", w.dev, w.tr, opts, 10); err != nil {
		t.Fatal(err)
	}
	// Volatile data mutates before attestation — must not matter.
	if err := w.m.Poke(9*256+5, 0x3C); err != nil {
		t.Fatal(err)
	}
	w.v.Challenge("prv")
	w.k.Run()
	if rs := w.v.Results(); len(rs) != 1 || !rs[0].OK {
		t.Fatalf("zeroed-region attestation rejected: %+v", rs)
	}

	// Same mutation with DataReported: accepted, with the copy attached.
	opts2 := core.Preset(core.NoLock, suite.SHA256)
	opts2.Data = core.DataRegion{Blocks: []int{9}, Policy: core.DataReported}
	w2 := newWorld(t, opts2, channel.Config{})
	if _, err := prover.NewProver("prv", w2.dev, w2.tr, opts2, 10); err != nil {
		t.Fatal(err)
	}
	if err := w2.m.Poke(9*256+5, 0x3C); err != nil {
		t.Fatal(err)
	}
	w2.v.Challenge("prv")
	w2.k.Run()
	rs := w2.v.Results()
	if len(rs) != 1 || !rs[0].OK {
		t.Fatalf("reported-region attestation rejected: %+v", rs)
	}
	if rs[0].Report.Data[9][5] != 0x3C {
		t.Fatal("verifier did not receive the data copy")
	}
}
