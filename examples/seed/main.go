// Seed demonstrates SeED-style non-interactive attestation (§3.3): the
// prover measures itself at secret pseudorandom times driven by a
// hardware timeout circuit and pushes reports one way; the verifier
// reconstructs the schedule from a shared seed, rejects replays via
// monotonic counters, and notices dropped reports — then the demo shows
// why the schedule must stay secret from software.
//
// Run with: go run ./examples/seed
package main

import (
	"fmt"

	"saferatt/internal/core"
	"saferatt/internal/experiments"
	"saferatt/internal/malware"
	"saferatt/internal/prover"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
	"saferatt/internal/transport"
)

func main() {
	fmt.Println("SeED: prover-initiated, non-interactive attestation")
	fmt.Println()

	// Part 1: honest device over a 10%-lossy channel; the verifier's
	// schedule monitor validates reports and flags drops.
	opts := core.Preset(core.NoLock, suite.SHA256)
	w := experiments.NewWorld(experiments.WorldConfig{
		EngineConfig: experiments.EngineConfig{Seed: 21},
		MemSize:      8 << 10, BlockSize: 512, ROMBlocks: 1,
		Opts: opts, Latency: 5 * sim.Millisecond, Loss: 0.10,
	})
	shared := []byte("factory-provisioned-seed")
	p, err := prover.NewSeED("prv", w.Dev, w.Tr, opts, shared, 5*sim.Second, 2500*sim.Millisecond, 5)
	if err != nil {
		panic(err)
	}
	mon := w.Ver.MonitorSeED("prv", shared, 5*sim.Second, 2500*sim.Millisecond, 0, 10*sim.Second)
	p.Start()
	w.K.RunUntil(sim.Time(90 * sim.Second))
	mon.Stop()
	p.Stop()
	w.K.Run()

	c := w.Ver.Counts()
	fmt.Printf("90s over a 10%%-lossy link: %d triggers, %d accepted, %d flagged missing\n",
		p.Counter(), c.Accepted, c.Missing)
	fmt.Println("(a missing report is a possible false positive — the §3.3 caveat of")
	fmt.Println(" unidirectional communication: Vrf cannot acknowledge receipts)")
	fmt.Println()

	// Part 2: why the attestation time must be hidden from software.
	fmt.Println("schedule secrecy: transient malware vs the timeout circuit")
	for _, leaked := range []bool{false, true} {
		opts := core.Preset(core.SMART, suite.SHA256)
		w := experiments.NewWorld(experiments.WorldConfig{
			EngineConfig: experiments.EngineConfig{Seed: 33},
			MemSize:      4096, BlockSize: 256, ROMBlocks: 1, Opts: opts,
		})
		prv, err := prover.NewSeED("prv", w.Dev, w.Tr, opts, []byte("s"), 5*sim.Second, 2*sim.Second, 5)
		if err != nil {
			panic(err)
		}
		var reports []*core.Report
		w.Tr.Bind("verifier", func(m transport.Msg) {
			if m.Kind == transport.KindSeedReport {
				reports = append(reports, m.Reports...)
			}
		})
		mw := malware.NewTransient(w.Dev, 50)
		if leaked {
			prv.OnTrigger = func(ctr uint64, at sim.Time) {
				w.K.At(at-sim.Time(50*sim.Millisecond), func() { mw.Erase() })
				w.K.At(at.Add(sim.Second), func() {
					mw.Task().Submit(sim.Microsecond, func() { _ = mw.Infect(7) })
				})
			}
		}
		mw.Task().Submit(sim.Microsecond, func() { _ = mw.Infect(7) })
		prv.Start()
		w.K.RunUntil(sim.Time(40 * sim.Second))
		prv.Stop()
		w.K.Run()

		detected := false
		for _, rep := range reports {
			if !w.VerifyLocally(rep, false) {
				detected = true
				break
			}
		}
		label := "secret schedule (timeout circuit)"
		if leaked {
			label = "leaked schedule (software-visible)"
		}
		fmt.Printf("  %-38s detected=%v over %d reports\n", label, detected, len(reports))
	}
	fmt.Println()
	fmt.Println("conclusion: counters stop replays, the known schedule exposes drops,")
	fmt.Println("and only a software-invisible trigger defeats transient malware.")
}
