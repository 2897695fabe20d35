package prover

import (
	"math/rand/v2"
	"testing"

	"saferatt/internal/channel"
	"saferatt/internal/core"
	"saferatt/internal/costmodel"
	"saferatt/internal/device"
	"saferatt/internal/mem"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
	"saferatt/internal/trace"
	"saferatt/internal/transport"
)

// rig is a device on a simulated link, seen through its transport.
type rig struct {
	k    *sim.Kernel
	dev  *device.Device
	link *channel.Link
	tr   *transport.Sim
}

func newRig(t *testing.T, size, blockSize int, latency sim.Duration) *rig {
	t.Helper()
	k := sim.NewKernel()
	m := mem.New(mem.Config{Size: size, BlockSize: blockSize, ROMBlocks: 1, Clock: k.Now})
	m.FillRandom(rand.New(rand.NewPCG(42, 42)))
	d := device.New(device.Config{Kernel: k, Mem: m, Profile: costmodel.ODROIDXU4(), Trace: &trace.Log{}})
	link := channel.New(channel.Config{Kernel: k, Latency: latency})
	return &rig{k: k, dev: d, link: link, tr: transport.NewSim(link)}
}

func newLinkedRig(t *testing.T) *rig { return newRig(t, 4096, 256, sim.Millisecond) }

// challenge sends a SMART challenge from "verifier" to "prv".
func (r *rig) challenge(nonce string) {
	r.tr.Send(transport.Msg{From: "verifier", To: "prv", Kind: transport.KindChallenge, Nonce: []byte(nonce)})
}

func TestProverRespondsToChallenge(t *testing.T) {
	r := newLinkedRig(t)
	opts := core.Preset(core.SMART, suite.SHA256)
	p, err := NewProver("prv", r.dev, r.tr, opts, 10)
	if err != nil {
		t.Fatal(err)
	}
	if p.Task() == nil {
		t.Fatal("no MP task")
	}
	var got []*core.Report
	r.tr.Bind("verifier", func(m transport.Msg) {
		if m.Kind == transport.KindReport {
			got = m.Reports
		}
	})
	r.challenge("abc")
	r.k.Run()
	if len(got) != 1 {
		t.Fatalf("reports: %d", len(got))
	}
	if string(got[0].Nonce) != "abc" {
		t.Fatal("nonce not echoed")
	}
	if got := r.dev.Mem.LockedCount(); got != 1 {
		t.Fatalf("non-Ext session holding locks: %d locked, want 1 (ROM)", got)
	}
}

func TestProverDropsChallengeWhileBusy(t *testing.T) {
	r := newLinkedRig(t)
	opts := core.Preset(core.SMART, suite.SHA256)
	p, err := NewProver("prv", r.dev, r.tr, opts, 10)
	if err != nil {
		t.Fatal(err)
	}
	replies := 0
	r.tr.Bind("verifier", func(m transport.Msg) {
		if m.Kind == transport.KindReport {
			replies++
		}
	})
	// Two challenges back-to-back: the second arrives while the first
	// session runs.
	r.challenge("one")
	r.challenge("two")
	r.k.Run()
	if replies != 1 {
		t.Fatalf("replies = %d, want 1", replies)
	}
	if p.DroppedBusy != 1 {
		t.Fatalf("DroppedBusy = %d, want 1", p.DroppedBusy)
	}
}

// TestProverIgnoresMalformedPayloads: link traffic that is not a
// protocol message, and protocol kinds an on-demand prover does not
// serve, draw no reply.
func TestProverIgnoresMalformedPayloads(t *testing.T) {
	r := newLinkedRig(t)
	opts := core.Preset(core.SMART, suite.SHA256)
	if _, err := NewProver("prv", r.dev, r.tr, opts, 10); err != nil {
		t.Fatal(err)
	}
	replies := 0
	r.tr.Bind("verifier", func(transport.Msg) { replies++ })
	r.link.Send("verifier", "prv", "challenge", 12345) // not a Msg
	r.link.Send("verifier", "prv", "garbage-kind", nil)
	r.tr.Send(transport.Msg{From: "verifier", To: "prv", Kind: transport.KindCollect})
	r.tr.Send(transport.Msg{From: "verifier", To: "prv", Kind: transport.KindVerdict, OK: true})
	r.k.Run()
	if replies != 0 {
		t.Fatalf("replies to malformed traffic: %d", replies)
	}
}

func TestNewProverRejectsInvalidOptions(t *testing.T) {
	r := newLinkedRig(t)
	if _, err := NewProver("prv", r.dev, r.tr, core.Options{}, 10); err == nil {
		t.Fatal("invalid options accepted")
	}
}

func TestReleaseMessageWithoutSessionIsNoop(t *testing.T) {
	r := newLinkedRig(t)
	opts := core.Preset(core.AllLockExt, suite.SHA256)
	if _, err := NewProver("prv", r.dev, r.tr, opts, 10); err != nil {
		t.Fatal(err)
	}
	r.tr.Send(transport.Msg{From: "verifier", To: "prv", Kind: transport.KindRelease}) // before any challenge
	r.k.Run()                                                                          // must not panic
}

func TestErasmusAccessors(t *testing.T) {
	r := newRig(t, 2048, 256, 0)
	e, err := NewErasmus("prv", r.dev, nil, core.Preset(core.NoLock, suite.SHA256), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if e.TM != 10*sim.Second {
		t.Fatalf("default TM = %v", e.TM)
	}
	if _, err := NewErasmus("x", r.dev, nil, core.Options{}, 0, 5); err == nil {
		t.Fatal("invalid options accepted")
	}
	// Nothing releases a self-measurement's -Ext locks, so its session
	// could never run twice.
	for _, id := range []core.MechanismID{core.AllLockExt, core.IncLockExt} {
		if _, err := NewErasmus("x", r.dev, nil, core.Preset(id, suite.SHA256), 0, 5); err == nil {
			t.Fatalf("%s accepted for a self-measuring prover", id)
		}
	}
}

func TestSeEDAccessorsAndDefaults(t *testing.T) {
	r := newLinkedRig(t)
	p, err := NewSeED("prv", r.dev, r.tr, core.Preset(core.NoLock, suite.SHA256), []byte("s"), 0, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p.Base != 10*sim.Second || p.Jitter != 5*sim.Second {
		t.Fatalf("defaults: base %v jitter %v", p.Base, p.Jitter)
	}
	if p.Task() == nil {
		t.Fatal("no task")
	}
	if _, err := NewSeED("x", r.dev, r.tr, core.Options{}, nil, 0, 0, 5); err == nil {
		t.Fatal("invalid options accepted")
	}
	if _, err := NewSeED("x", r.dev, r.tr, core.Preset(core.AllLockExt, suite.SHA256), nil, 0, 0, 5); err == nil {
		t.Fatal("All-Lock-Ext accepted for a self-measuring prover")
	}
}
