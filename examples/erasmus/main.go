// Erasmus demonstrates self-measurement for unattended devices (§3.3):
// the prover measures itself on a schedule, the verifier collects and
// validates the history later, and the Quality of Attestation (QoA)
// notion — measurement period T_M vs collection period T_C — decides
// which transient infections are caught (Figure 5).
//
// Run with: go run ./examples/erasmus
package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"saferatt/internal/core"
	"saferatt/internal/experiments"
	"saferatt/internal/malware"
	"saferatt/internal/prover"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
	"saferatt/internal/swarm"
	"saferatt/internal/verifier"
)

func main() {
	fmt.Println("ERASMUS: recurrent self-measurement + occasional collection")
	fmt.Println()

	// One concrete run: T_M = 10 s, collection at t = 65 s, a transient
	// infection dwelling 15 s (> T_M, so it cannot hide).
	opts := core.Preset(core.SMART, suite.SHA256) // atomic measurement core
	w := experiments.NewWorld(experiments.WorldConfig{
		EngineConfig: experiments.EngineConfig{Seed: 11},
		MemSize:      8 << 10, BlockSize: 512, ROMBlocks: 1,
		Opts: opts, Latency: 10 * sim.Millisecond,
	})
	e, err := prover.NewErasmus("prv", w.Dev, w.Tr, opts, 10*sim.Second, 5)
	if err != nil {
		panic(err)
	}
	e.Start()

	mw := malware.NewTransient(w.Dev, 50)
	mw.ScheduleDwell(7, sim.Time(22*sim.Second), sim.Time(37*sim.Second))

	w.K.At(sim.Time(65*sim.Second), func() { w.Ver.Collect("prv") })
	w.K.RunUntil(sim.Time(70 * sim.Second))
	e.Stop()
	w.K.Run()

	history := e.History()
	q := verifier.QoAOf(history, w.K.Now())
	fmt.Printf("collected %d self-measurements; observed T_M=%v, staleness=%v\n",
		q.Measurements, q.MeanTM, q.Staleness)

	c := w.Ver.Counts()
	fmt.Printf("verifier: %d accepted, %d rejected -> infection detected=%v\n",
		c.Accepted, c.Rejected, c.Rejected > 0)
	fmt.Printf("(infection dwelled 22s..37s; measurements at 10s,20s,30s,... so the\n")
	fmt.Printf(" 30s measurement captured the infected state)\n\n")

	// Figure 5 sweep: detection probability vs dwell time.
	rows := experiments.E7QoA(experiments.E7Config{
		TM:     10 * sim.Second,
		Trials: 60,
		Seed:   rand.Uint64() % 1000, // vary run-to-run; analytic column is the reference
	})
	fmt.Print(experiments.RenderE7(rows))

	// The same protocol as a fleet: 500 devices multiplexed on one
	// kernel for an hour (E12 runs this at 10k devices for a day).
	start := time.Now()
	res, err := swarm.RunSelfFleet(swarm.SelfFleetConfig{
		EngineConfig: swarm.EngineConfig{Seed: 7, Parallelism: 1},
		Devices:      500, Mode: swarm.SelfErasmus,
		TM: 30 * sim.Second, TC: 5 * sim.Minute, Horizon: sim.Hour,
	})
	if err != nil {
		panic(err)
	}
	wall := time.Since(start)
	fmt.Printf("\nfleet of 500: %d measurements, %d events in %v (%.2f Mev/s)\n",
		res.Measurements, res.Events, wall.Round(time.Millisecond),
		float64(res.Events)/wall.Seconds()/1e6)
}
