// Command rattsim runs configurable attestation scenarios on the
// simulated device and reports outcomes, timing, and (optionally) the
// full event trace.
//
// Modes:
//
//	rattsim                                  # on-demand: clean SMART attestation
//	rattsim -mech SMARM -rounds 13 -malware roving
//	rattsim -mech Inc-Lock -malware transient -trace
//	rattsim -malware persistent -malware-block 17 -trace  # infected device, Fig. 1 events
//	rattsim -mode erasmus -horizon 60 -tm 10  # self-measurement + collection
//	rattsim -mode seed -loss 0.1 -horizon 90  # non-interactive over lossy link
//	rattsim -mode swarm -nodes 31 -infect 17  # collective attestation
//	rattsim -mode swarm -devices 10000 -shards 8 -infect 42  # sharded fleet (COW images, batched verification)
//	rattsim -mode tytan                       # per-process + colluding malware
//	rattsim -mode tytan -no-isolation         # ... with the OS vulnerability
//	rattsim -mode lifecycle                   # §1 services: detect, erase, update, re-attest
//	rattsim -mode rattping -addr 127.0.0.1:9779 -provers 1000  # fleet vs a live rattd daemon
//
// rattping tuning flags: -loss injects datagram drop and -concurrency
// caps simultaneously active provers. A rattping drives one daemon, so
// several daemons take one rattping each; -shards is swarm-only and an
// error with rattping. The client socket runs the
// transport's defaults, as cmd/rattd's does: one dispatch worker a core
// (at least four) and its fixed batching.
//
// A flag value the scenario cannot run with is an error: rattsim prints
// it and exits with status 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"saferatt"
	"saferatt/internal/core"
	"saferatt/internal/suite"
	"saferatt/internal/transport"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "rattsim:", err)
		os.Exit(2)
	}
}

// run parses args, checks them, and writes the chosen scenario's report
// to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rattsim", flag.ContinueOnError)
	var (
		mode    = fs.String("mode", "ondemand", "scenario: ondemand, erasmus, seed, swarm, tytan, lifecycle, rattping")
		mech    = fs.String("mech", "SMART", "mechanism: "+mechList())
		hash    = fs.String("hash", "SHA-256", "hash: SHA-256, SHA-512, BLAKE2b, BLAKE2s, AES-CMAC")
		rounds  = fs.Int("rounds", 0, "SMARM rounds (0 = preset default)")
		memSize = fs.Int("mem", 64<<10, "attested memory bytes")
		block   = fs.Int("block", 1<<10, "block size bytes")
		latency = fs.Int("latency", 5, "link latency (ms)")
		malw    = fs.String("malware", "none", "adversary: none, persistent, roving, transient")
		mblock  = fs.Int("malware-block", 7, "block the malware occupies")
		seed    = fs.Uint64("seed", 1, "determinism seed")
		showTr  = fs.Bool("trace", false, "print the full event trace")
		horizon = fs.Int("horizon", 60, "erasmus/seed: observation window (s)")
		tm      = fs.Int("tm", 10, "erasmus: self-measurement period (s)")
		loss    = fs.Float64("loss", 0, "seed: channel loss rate")
		nodes   = fs.Int("nodes", 15, "swarm: number of nodes")
		infect  = fs.Int("infect", -1, "swarm: node index to infect (-1 none)")
		devices = fs.Int("devices", 0, "swarm: fleet size for the sharded engine (0 = tree protocol with -nodes)")
		shards  = fs.Int("shards", 0, "swarm: worker shards for -devices (0 = GOMAXPROCS; results identical)")
		noIso   = fs.Bool("no-isolation", false, "tytan: disable process isolation (the OS vulnerability)")
		addr    = fs.String("addr", "127.0.0.1:9779", "rattping: rattd daemon address")
		provers = fs.Int("provers", 100, "rattping: fleet size")
		history = fs.Int("history", 3, "rattping: self-measurements per collection (negative skips)")
		conc    = fs.Int("concurrency", 0, "rattping: max simultaneously active provers (0 = all)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Every mechanism core.Preset takes: the on-demand ones and the two
	// self-measurement schedulers.
	mechs := append(core.Mechanisms(), core.Erasmus, core.SeED)
	switch {
	case !slices.Contains(mechs, core.MechanismID(*mech)):
		return fmt.Errorf("unknown -mech %q (want %s)", *mech, mechList())
	case !validHash(suite.HashID(*hash)):
		return fmt.Errorf("unknown -hash %q (want SHA-256, SHA-512, BLAKE2b, BLAKE2s or AES-CMAC)", *hash)
	case *block <= 0 || *memSize < 2**block || *memSize%*block != 0:
		return fmt.Errorf("-mem %d must be a multiple of -block %d, and at least two blocks", *memSize, *block)
	case *latency < 0:
		return fmt.Errorf("-latency %d is negative", *latency)
	case *loss < 0 || *loss > 1:
		return fmt.Errorf("-loss %v is outside [0, 1]", *loss)
	case *tm <= 0 || *horizon <= 0:
		return fmt.Errorf("-tm %d and -horizon %d must be positive", *tm, *horizon)
	case *nodes < 1 || *devices < 0 || *shards < 0:
		return fmt.Errorf("-nodes %d must be at least 1, -devices %d and -shards %d not negative", *nodes, *devices, *shards)
	}

	switch *mode {
	case "ondemand":
		// handled below
	case "erasmus":
		return runErasmus(stdout, *memSize, *block, *seed, *horizon, *tm)
	case "seed":
		return runSeed(stdout, *memSize, *block, *seed, *horizon, *loss)
	case "swarm":
		n := *nodes
		if *devices > 0 {
			n = *devices
		}
		if *infect < -1 || *infect >= n {
			return fmt.Errorf("-infect %d names no node of %d", *infect, n)
		}
		if *devices > 0 {
			return runSwarmSharded(stdout, *devices, *shards, *seed, *infect)
		}
		return runSwarm(stdout, *nodes, *seed, *infect)
	case "tytan":
		return runTyTAN(stdout, *seed, !*noIso)
	case "lifecycle":
		return runLifecycle(stdout)
	case "rattping":
		if *shards != 0 {
			return fmt.Errorf("-shards %d: rattping drives one daemon; run one rattping per daemon", *shards)
		}
		return runRattping(stdout, rattpingOpts{
			addr: *addr, provers: *provers, seed: *seed,
			memSize: *memSize, block: *block, history: *history,
			concurrency: *conc, net: transport.NetConfig{DropRate: *loss},
		})
	default:
		return fmt.Errorf("unknown mode %q", *mode)
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

	if *malw != "none" && (*mblock < 0 || *mblock >= *memSize / *block) {
		return fmt.Errorf("-malware-block %d names no block of %d", *mblock, *memSize / *block)
	}
	var err error
	switch *malw {
	case "none":
	case "persistent":
		err = s.InfectPersistent(*mblock)
	case "roving":
		_, err = s.NewSelfRelocating(*mblock, *seed)
	case "transient":
		_, err = s.NewTransient(*mblock)
	default:
		return fmt.Errorf("unknown malware kind %q", *malw)
	}
	if err != nil {
		return fmt.Errorf("infect: %w", err)
	}

	res := s.AttestOnce()
	fmt.Fprintf(stdout, "mechanism:   %s (%s)\n", *mech, *hash)
	fmt.Fprintf(stdout, "memory:      %d bytes in %d-byte blocks\n", *memSize, *block)
	fmt.Fprintf(stdout, "adversary:   %s\n", *malw)
	fmt.Fprintf(stdout, "verdict:     ok=%v", res.OK)
	if !res.OK {
		fmt.Fprintf(stdout, "  (%s)", res.Reason)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "measurement: %v   round-trip: %v\n", res.Duration, res.RoundTrip)
	if *malw != "none" {
		if res.OK {
			fmt.Fprintln(stdout, "result:      the adversary ESCAPED this mechanism")
		} else {
			fmt.Fprintln(stdout, "result:      the adversary was DETECTED")
		}
	}
	if *showTr {
		fmt.Fprintln(stdout, "\nevent trace:")
		fmt.Fprint(stdout, s.Trace.Render())
	}
	return nil
}

// validHash reports whether id names a MAC the suite can build.
func validHash(id suite.HashID) bool {
	_, err := suite.NewMAC(id, make([]byte, 16))
	return err == nil
}

func mechList() string {
	ids := core.Mechanisms()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id)
	}
	return strings.Join(out, ", ")
}
