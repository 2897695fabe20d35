package verifier

import (
	"math/rand/v2"
	"strings"
	"testing"

	"saferatt/internal/channel"
	"saferatt/internal/core"
	"saferatt/internal/costmodel"
	"saferatt/internal/device"
	"saferatt/internal/mem"
	"saferatt/internal/prover"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
	"saferatt/internal/transport"
)

// fleetWorld builds N identical provers (same golden image, same shared
// key — a fleet of identical sensors) behind one verifier.
type fleetWorld struct {
	k    *sim.Kernel
	v    *Verifier
	devs []*device.Device
}

func newFleetWorld(t *testing.T, n int, linkCfg channel.Config) *fleetWorld {
	t.Helper()
	k := sim.NewKernel()
	linkCfg.Kernel = k
	tr := transport.NewSim(channel.New(linkCfg))
	key := []byte("fleet-shared-attestation-key!!!!")
	opts := core.Preset(core.SMART, suite.SHA256)

	var golden []byte
	devs := make([]*device.Device, 0, n)
	for i := 0; i < n; i++ {
		m := mem.New(mem.Config{Size: 4096, BlockSize: 256, ROMBlocks: 1, Clock: k.Now})
		m.FillRandom(rand.New(rand.NewPCG(77, 77))) // identical images
		dev := device.New(device.Config{Kernel: k, Mem: m, Profile: costmodel.ODROIDXU4(), Key: key})
		if golden == nil {
			golden = m.Snapshot()
		}
		name := "prv" + string(rune('A'+i))
		if _, err := prover.NewProver(name, dev, tr, opts, 10); err != nil {
			t.Fatal(err)
		}
		devs = append(devs, dev)
	}
	v, err := New(Config{
		Kernel: k, Transport: tr,
		Scheme:  suite.Scheme{Hash: suite.SHA256, Key: key},
		PermKey: key,
		Image:   ImageOf(golden, 256),
		Opts:    opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fleetWorld{k: k, v: v, devs: devs}
}

func TestFleetAllHealthy(t *testing.T) {
	w := newFleetWorld(t, 3, channel.Config{Latency: sim.Millisecond})
	f := NewFleet(w.v, 10*sim.Second, 2*sim.Second)
	for _, p := range []string{"prvA", "prvB", "prvC"} {
		f.Add(p)
	}
	f.Start()
	w.k.RunUntil(sim.Time(35 * sim.Second))
	f.Stop()
	w.k.Run()

	if !f.Healthy() {
		t.Fatalf("healthy fleet flagged: %s", f.Render())
	}
	for _, h := range f.Health() {
		if h.Rounds < 3 {
			t.Errorf("%s: %d rounds in 35s at 10s period", h.Prover, h.Rounds)
		}
		if h.Failures != 0 {
			t.Errorf("%s: %d failures", h.Prover, h.Failures)
		}
		if h.Staleness <= 0 || h.Staleness > 11*sim.Second {
			t.Errorf("%s: staleness %v", h.Prover, h.Staleness)
		}
	}
	if out := f.Render(); !strings.Contains(out, "HEALTHY") {
		t.Fatal("render")
	}
}

func TestFleetFlagsInfectedProver(t *testing.T) {
	w := newFleetWorld(t, 3, channel.Config{})
	f := NewFleet(w.v, 10*sim.Second, 2*sim.Second)
	for _, p := range []string{"prvA", "prvB", "prvC"} {
		f.Add(p)
	}
	var flips []string
	f.OnChange = func(p string, healthy bool, reason string) {
		flips = append(flips, p)
		if healthy {
			t.Errorf("unexpected recovery of %s", p)
		}
		if reason == "" {
			t.Error("flip without reason")
		}
	}
	f.Start()
	// prvB gets infected at t=15s.
	w.k.At(sim.Time(15*sim.Second), func() {
		if err := w.devs[1].Mem.Poke(5*256, 0xDD); err != nil {
			t.Error(err)
		}
	})
	w.k.RunUntil(sim.Time(40 * sim.Second))
	f.Stop()
	w.k.Run()

	if f.Healthy() {
		t.Fatal("infected fleet reported healthy")
	}
	if len(flips) != 1 || flips[0] != "prvB" {
		t.Fatalf("flips = %v, want [prvB]", flips)
	}
	for _, h := range f.Health() {
		wantHealthy := h.Prover != "prvB"
		if h.Healthy != wantHealthy {
			t.Errorf("%s healthy=%v", h.Prover, h.Healthy)
		}
	}
}

func TestFleetTimeoutOnDeadProver(t *testing.T) {
	// Drop ALL traffic to prvC: its challenges time out.
	adv := channel.AdversaryFunc(func(m channel.Message) channel.Verdict {
		if m.To == "prvC" {
			return channel.Drop
		}
		return channel.Deliver
	})
	w := newFleetWorld(t, 3, channel.Config{Adv: adv})
	f := NewFleet(w.v, 10*sim.Second, 2*sim.Second)
	for _, p := range []string{"prvA", "prvB", "prvC"} {
		f.Add(p)
	}
	down := ""
	f.OnChange = func(p string, healthy bool, reason string) {
		if !healthy {
			down = p
			if !strings.Contains(reason, "timed out") {
				t.Errorf("reason %q", reason)
			}
		}
	}
	f.Start()
	w.k.RunUntil(sim.Time(25 * sim.Second))
	f.Stop()
	w.k.Run()

	if down != "prvC" {
		t.Fatalf("down = %q, want prvC", down)
	}
	if f.Healthy() {
		t.Fatal("fleet with dead prover reported healthy")
	}
}

func TestFleetRecovery(t *testing.T) {
	w := newFleetWorld(t, 1, channel.Config{})
	f := NewFleet(w.v, 5*sim.Second, sim.Second)
	f.Add("prvA")
	var events []bool
	f.OnChange = func(p string, healthy bool, reason string) { events = append(events, healthy) }
	f.Start()

	// Infect at 7s, disinfect (restore) at 17s.
	var snap []byte
	w.k.At(sim.Time(6*sim.Second), func() { snap = w.devs[0].Mem.Snapshot() })
	w.k.At(sim.Time(7*sim.Second), func() { _ = w.devs[0].Mem.Poke(5*256, 0xDD) })
	w.k.At(sim.Time(17*sim.Second), func() { w.devs[0].Mem.Restore(snap) })

	w.k.RunUntil(sim.Time(30 * sim.Second))
	f.Stop()
	w.k.Run()

	if len(events) != 2 || events[0] != false || events[1] != true {
		t.Fatalf("events = %v, want [down, up]", events)
	}
	if !f.Healthy() {
		t.Fatal("recovered prover still flagged")
	}
}

func TestFleetAddDuplicateAndEmptyStart(t *testing.T) {
	w := newFleetWorld(t, 1, channel.Config{})
	f := NewFleet(w.v, 0, 0) // defaults
	if f.Period != 30*sim.Second {
		t.Fatalf("default period %v", f.Period)
	}
	f.Add("prvA")
	f.Add("prvA")
	if len(f.Health()) != 1 {
		t.Fatal("duplicate add created two entries")
	}
	empty := NewFleet(w.v, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Start with no provers should panic")
		}
	}()
	empty.Start()
}
