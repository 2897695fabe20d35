package services

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"saferatt/internal/channel"
	"saferatt/internal/core"
	"saferatt/internal/costmodel"
	"saferatt/internal/device"
	"saferatt/internal/malware"
	"saferatt/internal/mem"
	"saferatt/internal/prover"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
	"saferatt/internal/transport"
	"saferatt/internal/verifier"
)

type svcWorld struct {
	k     *sim.Kernel
	m     *mem.Memory
	dev   *device.Device
	link  *channel.Link
	agent *Agent
	mgr   *Manager
}

func newSvcWorld(t *testing.T) *svcWorld {
	t.Helper()
	k := sim.NewKernel()
	m := mem.New(mem.Config{Size: 4096, BlockSize: 256, ROMBlocks: 1, Clock: k.Now})
	m.FillRandom(rand.New(rand.NewPCG(7, 7)))
	dev := device.New(device.Config{Kernel: k, Mem: m, Profile: costmodel.ODROIDXU4()})
	link := channel.New(channel.Config{Kernel: k, Latency: sim.Millisecond})
	agent := NewAgent("prv", dev, link, 5)
	rom := append([]byte(nil), m.Snapshot()[:256]...)
	mgr := NewManager("mgr", link, dev.AttestationKey, rom, 256, 4096)
	return &svcWorld{k: k, m: m, dev: dev, link: link, agent: agent, mgr: mgr}
}

func TestSecureUpdateRoundTrip(t *testing.T) {
	w := newSvcWorld(t)
	newCode := bytes.Repeat([]byte{0xC0}, 256)
	var ack *UpdateAck
	w.mgr.PushUpdate("prv", 5, newCode, func(a *UpdateAck) { ack = a })
	w.k.Run()

	if ack == nil || !ack.OK {
		t.Fatalf("ack: %+v", ack)
	}
	if !bytes.Equal(w.m.Block(5), newCode) {
		t.Fatal("update not installed")
	}
	if w.agent.Installed != 1 {
		t.Fatal("install not counted")
	}

	// The post-update attestation story: verifier updates its golden
	// image and a normal attestation confirms installation.
	opts := core.Preset(core.SMART, suite.SHA256)
	golden := w.m.Snapshot()
	tr := transport.NewSim(w.link)
	v, err := verifier.New(verifier.Config{
		Kernel: w.k, Transport: tr,
		Scheme:  suite.Scheme{Hash: suite.SHA256, Key: w.dev.AttestationKey},
		PermKey: w.dev.AttestationKey,
		Image:   verifier.ImageOf(golden, w.m.BlockSize()),
		Opts:    opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prover.NewProver("prv-att", w.dev, tr, opts, 10); err != nil {
		t.Fatal(err)
	}
	v.Challenge("prv-att")
	w.k.Run()
	if rs := v.Results(); len(rs) != 1 || !rs[0].OK {
		t.Fatalf("post-update attestation failed: %+v", rs)
	}
}

func TestUpdateForgeryRejected(t *testing.T) {
	w := newSvcWorld(t)
	content := bytes.Repeat([]byte{1}, 256)
	u := &Update{Seq: 99, Block: 5, Content: content, Tag: []byte("forged")}
	var ack *UpdateAck
	w.link.Connect("mgr", func(m channel.Message) {
		if m.Kind == MsgUpdateAck {
			ack = m.Payload.(*UpdateAck)
		}
	})
	w.link.Send("mgr", "prv", MsgUpdate, u)
	w.k.Run()
	if ack == nil || ack.OK {
		t.Fatalf("forged update accepted: %+v", ack)
	}
	if w.agent.Installed != 0 {
		t.Fatal("forged update installed")
	}
}

func TestUpdateReplayRejected(t *testing.T) {
	w := newSvcWorld(t)
	content := bytes.Repeat([]byte{2}, 256)
	var first *Update
	var acks []*UpdateAck
	first = w.mgr.PushUpdate("prv", 5, content, func(a *UpdateAck) { acks = append(acks, a) })
	w.k.Run()
	// Replay the captured update verbatim.
	w.link.Connect("mgr", func(m channel.Message) {
		if m.Kind == MsgUpdateAck {
			acks = append(acks, m.Payload.(*UpdateAck))
		}
	})
	w.link.Send("mgr", "prv", MsgUpdate, first)
	w.k.Run()
	if len(acks) != 2 {
		t.Fatalf("acks: %d", len(acks))
	}
	if !acks[0].OK || acks[1].OK {
		t.Fatalf("replay handling wrong: %+v %+v", acks[0], acks[1])
	}
	if acks[1].Reason == "" {
		t.Fatal("replay rejected without reason")
	}
}

func TestUpdateWrongSizeRejected(t *testing.T) {
	w := newSvcWorld(t)
	var ack *UpdateAck
	w.mgr.PushUpdate("prv", 5, []byte{1, 2, 3}, func(a *UpdateAck) { ack = a })
	w.k.Run()
	if ack == nil || ack.OK {
		t.Fatal("short update accepted")
	}
}

func TestProofOfSecureErasure(t *testing.T) {
	w := newSvcWorld(t)
	// Malware resident before erasure.
	mw := malware.NewTransient(w.dev, 50)
	if err := mw.Infect(9); err != nil {
		t.Fatal(err)
	}

	var ok bool
	var proof *EraseProof
	req := w.mgr.RequestErasure("prv", func(o bool, p *EraseProof) { ok, proof = o, p })
	w.k.Run()

	if proof == nil || !ok {
		t.Fatalf("erasure proof rejected: ok=%v proof=%+v", ok, proof)
	}
	if proof.Bytes != 15*256 {
		t.Fatalf("wiped %d bytes, want %d", proof.Bytes, 15*256)
	}
	if proof.TE <= proof.TS {
		t.Fatal("erasure took no time")
	}
	// Memory now equals the expected post-erasure image: the malware
	// payload is gone.
	if !bytes.Equal(w.m.Snapshot(), w.mgr.expectedAfterErasure(req)) {
		t.Fatal("memory does not match the expected erasure image")
	}
	if bytes.Contains(w.m.Snapshot(), bytes.Repeat([]byte{0xEB}, 16)) {
		t.Fatal("malware payload survived the erasure")
	}
	if w.agent.Erasures != 1 {
		t.Fatal("erasure not counted")
	}
}

// A device that did NOT actually perform the erasure cannot pass: a
// proof tampered in flight (equivalently, computed over any memory
// other than the seeded stream) fails verification.
func TestErasureProofBindsMemory(t *testing.T) {
	k := sim.NewKernel()
	m := mem.New(mem.Config{Size: 4096, BlockSize: 256, ROMBlocks: 1, Clock: k.Now})
	m.FillRandom(rand.New(rand.NewPCG(7, 7)))
	dev := device.New(device.Config{Kernel: k, Mem: m, Profile: costmodel.ODROIDXU4()})
	adv := channel.AdversaryFunc(func(msg channel.Message) channel.Verdict {
		if msg.Kind == MsgEraseProof {
			msg.Payload.(*EraseProof).Tag[0] ^= 1
		}
		return channel.Deliver
	})
	link := channel.New(channel.Config{Kernel: k, Adv: adv})
	NewAgent("prv", dev, link, 5)
	rom := append([]byte(nil), m.Snapshot()[:256]...)
	mgr := NewManager("mgr", link, dev.AttestationKey, rom, 256, 4096)

	verdict := true
	got := false
	mgr.RequestErasure("prv", func(o bool, p *EraseProof) { verdict, got = o, true })
	k.Run()
	if !got {
		t.Fatal("no proof delivered")
	}
	if verdict {
		t.Fatal("tampered proof verified")
	}
}

// Erasure runs atomically: a concurrent task cannot interleave writes
// into already-wiped blocks.
func TestErasureIsAtomic(t *testing.T) {
	w := newSvcWorld(t)
	interloper := w.dev.NewTask("interloper", 100)
	ranDuring := false
	var eraseStartedAt sim.Time
	// Poll for the erasure starting, then try to run.
	w.k.NewTicker(10*sim.Microsecond, func(now sim.Time) {
		if w.dev.InterruptsDisabled() && eraseStartedAt == 0 {
			eraseStartedAt = now
			interloper.Submit(sim.Microsecond, func() {
				ranDuring = w.dev.InterruptsDisabled()
			})
		}
	})
	var done bool
	w.mgr.RequestErasure("prv", func(bool, *EraseProof) { done = true })
	w.k.RunUntil(sim.Time(sim.Second))
	if !done {
		t.Fatal("erasure never finished")
	}
	if eraseStartedAt == 0 {
		t.Fatal("never observed the atomic section")
	}
	if ranDuring {
		t.Fatal("interloper ran inside the atomic erasure")
	}
}

func TestEraseStreamDeterministicAndKeyed(t *testing.T) {
	a := make([]byte, 1000)
	b := make([]byte, 1000)
	eraseStream([]byte("k"), []byte("s"), a)
	eraseStream([]byte("k"), []byte("s"), b)
	if !bytes.Equal(a, b) {
		t.Fatal("stream not deterministic")
	}
	eraseStream([]byte("k"), []byte("s2"), b)
	if bytes.Equal(a, b) {
		t.Fatal("stream ignores seed")
	}
	eraseStream([]byte("k2"), []byte("s"), b)
	if bytes.Equal(a, b) {
		t.Fatal("stream ignores key")
	}
}
