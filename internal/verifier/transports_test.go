package verifier

import (
	"math/rand/v2"
	"testing"
	"time"

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

// wire is one way to connect a prover to a verifier: each side's end of
// the transport, and a way to let the exchange run until cond holds.
type wire struct {
	vtr, ptr transport.Transport
	settle   func(t *testing.T, k *sim.Kernel, cond func() bool)
}

func simWire(t *testing.T, k *sim.Kernel) wire {
	tr := transport.NewSim(channel.New(channel.Config{Kernel: k, Latency: 5 * sim.Millisecond}))
	return wire{vtr: tr, ptr: tr, settle: func(t *testing.T, k *sim.Kernel, cond func() bool) {
		t.Helper()
		if k.Run(); !cond() {
			t.Fatal("exchange did not complete in simulation")
		}
	}}
}

// pump hands a Net's deliveries to the test goroutine: the provers and
// the Verifier live on a sim kernel and are single-goroutine, while Net
// delivers on its dispatch workers.
type pump struct {
	transport.Transport
	inbox chan func()
}

func (p pump) Bind(name string, h transport.Handler) error {
	return p.Transport.Bind(name, func(m transport.Msg) { p.inbox <- func() { h(m) } })
}

// netWire is a loopback socket pair: the verifier listens, the prover
// dials it.
func netWire(t *testing.T, _ *sim.Kernel) wire {
	vnet, err := transport.Listen(transport.NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { vnet.Close() })
	pnet, err := transport.Dial(vnet.Addr().String(), transport.NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pnet.Close() })
	// The verifier speaks first in two of the exchanges, before any
	// inbound datagram could have taught it the prover's address.
	if err := vnet.AddRoute("prv", pnet.Addr().String()); err != nil {
		t.Fatal(err)
	}
	// No exchange below has more than four messages in flight; the
	// buffer keeps Net's workers from ever waiting on the test.
	inbox := make(chan func(), 16)
	return wire{vtr: pump{vnet, inbox}, ptr: pump{pnet, inbox}, settle: func(t *testing.T, k *sim.Kernel, cond func() bool) {
		t.Helper()
		deadline := time.After(10 * time.Second)
		for {
			if k.Run(); cond() {
				return
			}
			select {
			case deliver := <-inbox:
				deliver()
			case <-deadline:
				t.Fatal("exchange did not complete over loopback UDP")
			}
		}
	}}
}

// TestProtocolsOverSimAndNet is the sentence in package transport's
// comment, checked on the device side too: the same prover code and the
// same Verifier complete each of the paper's exchanges — on-demand
// (§2.2), ERASMUS collection, ERASMUS hybrid challenge and SeED push
// (§3.3) — over the simulated link and over real sockets, accepting a
// clean device and rejecting a modified one.
func TestProtocolsOverSimAndNet(t *testing.T) {
	wires := []struct {
		name string
		mk   func(*testing.T, *sim.Kernel) wire
	}{{"Sim", simWire}, {"Net", netWire}}

	// Each exchange drives itself to the point where only deliveries
	// remain and returns how many verdicts it must produce.
	type world struct {
		k    *sim.Kernel
		dev  *device.Device
		ptr  transport.Transport
		opts core.Options
		v    *Verifier
	}
	exchanges := []struct {
		name string
		mech core.MechanismID
		run  func(t *testing.T, w world) int
	}{
		{"OnDemand", core.SMART, func(t *testing.T, w world) int {
			if _, err := prover.NewProver("prv", w.dev, w.ptr, w.opts, 10); err != nil {
				t.Fatal(err)
			}
			w.v.Challenge("prv")
			return 1
		}},
		{"ErasmusCollect", core.NoLock, func(t *testing.T, w world) int {
			e, err := prover.NewErasmus("prv", w.dev, w.ptr, w.opts, sim.Second, 10)
			if err != nil {
				t.Fatal(err)
			}
			e.Start()
			w.k.RunUntil(sim.Time(3500 * sim.Millisecond))
			e.Stop()
			w.v.Collect("prv")
			return 3
		}},
		{"ErasmusHybridChallenge", core.NoLock, func(t *testing.T, w world) int {
			e, err := prover.NewErasmus("prv", w.dev, w.ptr, w.opts, sim.Second, 10)
			if err != nil {
				t.Fatal(err)
			}
			e.OnDemand = true
			w.v.Challenge("prv")
			return 1
		}},
		{"SeED", core.NoLock, func(t *testing.T, w world) int {
			seed := []byte("shared")
			p, err := prover.NewSeED("prv", w.dev, w.ptr, w.opts, seed, sim.Second, 200*sim.Millisecond, 10)
			if err != nil {
				t.Fatal(err)
			}
			// The grace is in virtual time, which real sockets do not
			// keep: the watchdog is not what this test is about.
			mon := w.v.MonitorSeED("prv", seed, sim.Second, 200*sim.Millisecond, 0, sim.Hour)
			p.Start()
			w.k.RunUntil(sim.Time(3500 * sim.Millisecond))
			p.Stop()
			mon.Stop()
			return p.Sent
		}},
	}

	for _, wi := range wires {
		for _, ex := range exchanges {
			for _, infected := range []bool{false, true} {
				name := wi.name + "/" + ex.name + "/clean"
				if infected {
					name = wi.name + "/" + ex.name + "/infected"
				}
				t.Run(name, func(t *testing.T) {
					k := sim.NewKernel()
					m := mem.New(mem.Config{Size: 4096, BlockSize: 256, ROMBlocks: 1, Clock: k.Now})
					m.FillRandom(rand.New(rand.NewPCG(1, 1)))
					dev := device.New(device.Config{Kernel: k, Mem: m, Profile: costmodel.ODROIDXU4()})
					opts := core.Preset(ex.mech, suite.SHA256)
					wr := wi.mk(t, k)
					v, err := New(Config{
						Kernel: k, Transport: wr.vtr,
						Scheme:  suite.Scheme{Hash: opts.Hash, Key: dev.AttestationKey},
						PermKey: dev.AttestationKey,
						Image:   ImageOf(m.Snapshot(), m.BlockSize()),
						Opts:    opts,
					})
					if err != nil {
						t.Fatal(err)
					}
					if infected {
						if err := m.Poke(2*256+7, 0xEE); err != nil {
							t.Fatal(err)
						}
					}
					want := ex.run(t, world{k: k, dev: dev, ptr: wr.ptr, opts: opts, v: v})
					if want == 0 {
						t.Fatal("the exchange sent nothing")
					}
					wr.settle(t, k, func() bool { return len(v.Results()) >= want })

					c := v.Counts()
					switch {
					case infected && (c.Accepted != 0 || c.Rejected != want):
						t.Fatalf("modified device: %+v, want %d rejections", c, want)
					case !infected && (c.Accepted != want || c.Rejected != 0):
						t.Fatalf("clean device: %+v, want %d acceptances (last %+v)", c, want, v.Results()[len(v.Results())-1])
					}
				})
			}
		}
	}
}
