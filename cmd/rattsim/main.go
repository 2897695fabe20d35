// Command rattsim runs configurable attestation scenarios on the
// simulated device and reports outcomes, timing, and (optionally) the
// full event trace.
//
// Modes:
//
//	rattsim                                  # on-demand: clean SMART attestation
//	rattsim -mech SMARM -rounds 13 -malware roving
//	rattsim -mech Inc-Lock -malware transient -trace
//	rattsim -mode erasmus -horizon 60 -tm 10  # self-measurement + collection
//	rattsim -mode seed -loss 0.1 -horizon 90  # non-interactive over lossy link
//	rattsim -mode swarm -nodes 31 -infect 17  # collective attestation
//	rattsim -mode swarm -devices 10000 -shards 8 -infect 42  # sharded fleet (COW images, batched verification)
//	rattsim -mode tytan                       # per-process + colluding malware
//	rattsim -mode tytan -no-isolation         # ... with the OS vulnerability
//	rattsim -mode rattping -addr 127.0.0.1:9779 -provers 1000  # fleet vs a live rattd daemon
//	rattsim -mode rattping -addr 127.0.0.1:9779 -shards 8 -provers 100000  # fleet vs a sharded rattd tier
//
// rattping tuning flags: -loss injects datagram drop and -concurrency
// caps simultaneously active provers. The client socket runs one
// receive worker per core (at least four) and the transport's default
// batching; the receive and batching knobs are cmd/rattd's.
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"strings"

	"saferatt"
	"saferatt/internal/core"
	"saferatt/internal/transport"
)

func main() {
	var (
		mode    = flag.String("mode", "ondemand", "scenario: ondemand, erasmus, seed, swarm, tytan, rattping")
		mech    = flag.String("mech", "SMART", "mechanism: "+mechList())
		hash    = flag.String("hash", "SHA-256", "hash: SHA-256, SHA-512, BLAKE2b, BLAKE2s")
		rounds  = flag.Int("rounds", 0, "SMARM rounds (0 = preset default)")
		memSize = flag.Int("mem", 64<<10, "attested memory bytes")
		block   = flag.Int("block", 1<<10, "block size bytes")
		latency = flag.Int("latency", 5, "link latency (ms)")
		malw    = flag.String("malware", "none", "adversary: none, persistent, roving, transient")
		mblock  = flag.Int("malware-block", 7, "block the malware occupies")
		seed    = flag.Uint64("seed", 1, "determinism seed")
		showTr  = flag.Bool("trace", false, "print the full event trace")
		horizon = flag.Int("horizon", 60, "erasmus/seed: observation window (s)")
		tm      = flag.Int("tm", 10, "erasmus: self-measurement period (s)")
		loss    = flag.Float64("loss", 0, "seed: channel loss rate")
		nodes   = flag.Int("nodes", 15, "swarm: number of nodes")
		infect  = flag.Int("infect", -1, "swarm: node index to infect (-1 none)")
		devices = flag.Int("devices", 0, "swarm: fleet size for the sharded engine (0 = tree protocol with -nodes)")
		shards  = flag.Int("shards", 0, "swarm: worker shards for -devices (0 = GOMAXPROCS; results identical) / rattping: width of the target rattd tier")
		noIso   = flag.Bool("no-isolation", false, "tytan: disable process isolation (the OS vulnerability)")
		addr    = flag.String("addr", "127.0.0.1:9779", "rattping: rattd daemon address (tier base address with -shards)")
		provers = flag.Int("provers", 100, "rattping: fleet size")
		history = flag.Int("history", 3, "rattping: self-measurements per collection (negative skips)")
		conc    = flag.Int("concurrency", 0, "rattping: max simultaneously active provers (0 = all)")
	)
	flag.Parse()

	switch *mode {
	case "ondemand":
		// handled below
	case "erasmus":
		runErasmus(*memSize, *block, *seed, *horizon, *tm)
		return
	case "seed":
		runSeed(*memSize, *block, *seed, *horizon, *loss)
		return
	case "swarm":
		if *devices > 0 {
			runSwarmSharded(*devices, *shards, *seed, *infect)
			return
		}
		runSwarm(*nodes, *seed, *infect)
		return
	case "tytan":
		runTyTAN(*seed, !*noIso)
		return
	case "rattping":
		// Match the daemon side: one dispatch worker per core, with a
		// small-host floor, so client receive capacity keeps pace with a
		// striped tier's reply rate.
		recvQueues := max(runtime.GOMAXPROCS(0), 4)
		runRattping(rattpingOpts{
			addr: *addr, shards: *shards, provers: *provers, seed: *seed,
			memSize: *memSize, block: *block, history: *history,
			concurrency: *conc, net: transport.NetConfig{DropRate: *loss, RecvQueues: recvQueues},
		})
		return
	default:
		log.Fatalf("unknown mode %q", *mode)
	}

	s := saferatt.NewScenario(saferatt.ScenarioConfig{
		Mechanism: core.MechanismID(*mech),
		Hash:      saferatt.HashID(*hash),
		Rounds:    *rounds,
		MemSize:   *memSize,
		BlockSize: *block,
		Latency:   saferatt.Duration(*latency) * saferatt.Millisecond,
		Seed:      *seed,
	})

	switch *malw {
	case "none":
	case "persistent":
		if err := s.InfectPersistent(*mblock); err != nil {
			log.Fatalf("infect: %v", err)
		}
	case "roving":
		if _, err := s.NewSelfRelocating(*mblock, *seed); err != nil {
			log.Fatalf("infect: %v", err)
		}
	case "transient":
		if _, err := s.NewTransient(*mblock); err != nil {
			log.Fatalf("infect: %v", err)
		}
	default:
		log.Fatalf("unknown malware kind %q", *malw)
	}

	res := s.AttestOnce()
	fmt.Printf("mechanism:   %s (%s)\n", *mech, *hash)
	fmt.Printf("memory:      %d bytes in %d-byte blocks\n", *memSize, *block)
	fmt.Printf("adversary:   %s\n", *malw)
	fmt.Printf("verdict:     ok=%v", res.OK)
	if !res.OK {
		fmt.Printf("  (%s)", res.Reason)
	}
	fmt.Println()
	fmt.Printf("measurement: %v   round-trip: %v\n", res.Duration, res.RoundTrip)
	if *malw != "none" {
		if res.OK {
			fmt.Println("result:      the adversary ESCAPED this mechanism")
		} else {
			fmt.Println("result:      the adversary was DETECTED")
		}
	}
	if *showTr {
		fmt.Println("\nevent trace:")
		fmt.Print(s.Trace.Render())
	}
}

func mechList() string {
	ids := core.Mechanisms()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	return strings.Join(out, ", ")
}
