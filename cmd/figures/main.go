// Command figures regenerates every table and figure of the paper as
// text tables (see EXPERIMENTS.md for the mapping and expected shapes).
//
// Usage:
//
//	figures -all                 # everything (a few minutes)
//	figures -fig 2               # one figure (1,2,4,5)
//	figures -table 1             # Table 1
//	figures -exp e5|e6|e8|e9|e10 # section experiments
//	figures -exp e11             # swarm-at-scale experiment (100/1k/10k devices)
//	figures -exp e12             # long-horizon self-measurement fleet (QoA sweep)
//	figures -exp e15             # million-prover single-shard run (intra-shard concurrency)
//	figures -exp e16             # zero-stall incremental checkpointing under fleet ingest
//	figures -exp e17             # heterogeneous fleet: image registry + live golden rotation
//	figures -ablation a1..a5     # ablations
//	figures -quick               # reduced trial counts
//	figures -parallel 4          # trial worker count (results identical)
//	figures -cpuprofile cpu.out  # write a pprof CPU profile
//	figures -memprofile mem.out  # write a pprof heap profile at exit
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"saferatt/internal/costmodel"
	"saferatt/internal/experiments"
	"saferatt/internal/parallel"
	"saferatt/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(2)
	}
}

// run parses args and writes each chosen section to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	var (
		fig      = fs.Int("fig", 0, "regenerate figure N (1, 2, 4, 5)")
		table    = fs.Int("table", 0, "regenerate table N (1)")
		exp      = fs.String("exp", "", "run section experiment (e5, e6, e8, e9, e10, e11, e12, e15, e16, e17)")
		ablation = fs.String("ablation", "", "run ablation (a1, a2, a3, a4, a5)")
		all      = fs.Bool("all", false, "run everything")
		quick    = fs.Bool("quick", false, "reduced Monte Carlo trial counts")
		csvDir   = fs.String("csv", "", "also write machine-readable CSV files into this directory")
		par      = fs.Int("parallel", 0, "Monte Carlo worker count (0 = GOMAXPROCS, 1 = serial; results are identical)")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *par > 0 {
		parallel.SetDefault(*par)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return err
		}
		defer func() {
			// A GC right before the snapshot drops dead objects, so the
			// profile shows what the run actually retains.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "figures:", err)
			}
			f.Close()
		}()
	}

	trials := func(full int) int {
		if *quick {
			return full / 10
		}
		return full
	}

	var failed error // the first error a section met; no section runs after it
	fail := func(err error) {
		if failed == nil {
			failed = err
		}
	}
	writeCSV := func(name string, emit func(io.Writer) error) {
		if *csvDir == "" {
			return
		}
		path := filepath.Join(*csvDir, name)
		f, err := os.Create(path)
		if err != nil {
			fail(err)
			return
		}
		defer f.Close()
		if err := emit(f); err != nil {
			fail(err)
			return
		}
		fmt.Fprintln(stdout, "wrote", path)
	}

	ran := false
	run := func(name string, want bool, f func()) {
		if failed != nil || !want && !*all {
			return
		}
		ran = true
		fmt.Fprintf(stdout, "──── %s ────\n", name)
		f()
		fmt.Fprintln(stdout)
	}

	run("Figure 1: on-demand RA timeline", *fig == 1, func() {
		fmt.Fprint(stdout, experiments.Fig1Timeline().Timeline)
	})
	run("Figure 2: hash & signature timings", *fig == 2, func() {
		p := costmodel.ODROIDXU4()
		pts := experiments.Fig2Series(p, nil)
		fmt.Fprint(stdout, experiments.RenderFig2(pts, p))
		writeCSV("fig2.csv", func(w io.Writer) error { return experiments.Fig2CSV(w, pts) })
	})
	run("Table 1: solution feature matrix (measured)", *table == 1, func() {
		fmt.Fprint(stdout, experiments.RenderTable1(experiments.Table1(experiments.Table1Config{
			Trials: trials(20),
		})))
	})
	run("Figure 4: temporal-consistency windows", *fig == 4, func() {
		fmt.Fprint(stdout, experiments.RenderFig4(experiments.Fig4Windows()))
	})
	run("E5 (§2.5): fire-alarm latency", *exp == "e5", func() {
		rows := experiments.E5FireAlarm(experiments.E5Config{})
		fmt.Fprint(stdout, experiments.RenderE5(rows))
		writeCSV("e5.csv", func(w io.Writer) error { return experiments.E5CSV(w, rows) })
	})
	run("E6 (§3.2): SMARM escape probability", *exp == "e6", func() {
		rows := experiments.E6SMARM(experiments.E6Config{Trials: trials(200)})
		fmt.Fprint(stdout, experiments.RenderE6(rows))
		writeCSV("e6.csv", func(w io.Writer) error { return experiments.E6CSV(w, rows) })
	})
	run("Figure 5 / E7: QoA vs transient malware", *fig == 5, func() {
		rows := experiments.E7QoA(experiments.E7Config{Trials: trials(100)})
		fmt.Fprint(stdout, experiments.RenderE7(rows))
		writeCSV("e7.csv", func(w io.Writer) error { return experiments.E7CSV(w, rows) })
	})
	run("E8 (§3.3): SeED properties", *exp == "e8", func() {
		fmt.Fprint(stdout, experiments.RenderE8(experiments.E8SeED(experiments.E8Config{
			ScheduleTrials: trials(40),
		})))
	})
	run("E9 (§2.1): software-based RA vs redirection", *exp == "e9", func() {
		fmt.Fprint(stdout, experiments.RenderE9(experiments.E9SoftwareRA(experiments.E9Config{
			Trials: trials(20),
		})))
	})
	run("E10 (§3.3): challenge-flood DoS, on-demand vs SeED", *exp == "e10", func() {
		fmt.Fprint(stdout, experiments.RenderE10(experiments.E10DoS(experiments.E10Config{})))
	})
	run("E11: swarm at scale (COW images, sharded rounds, batched verification)", *exp == "e11", func() {
		cfg := experiments.E11Config{Shards: *par}
		if *quick {
			cfg.DeviceCounts = []int{100, 1000}
			cfg.Rounds = 1
		}
		fmt.Fprint(stdout, experiments.RenderE11(experiments.E11SwarmScale(cfg)))
	})
	run("E12: long-horizon self-measurement fleet (QoA sweep, scheduler throughput)", *exp == "e12", func() {
		cfg := experiments.E12Config{Shards: *par}
		if *quick {
			cfg.Devices = 1000
			cfg.Horizon = 8 * sim.Hour
			cfg.TMs = []sim.Duration{2 * sim.Minute}
		}
		fmt.Fprint(stdout, experiments.RenderE12(experiments.E12FleetSelf(cfg)))
	})
	run("E15: million-prover single-shard run (intra-shard concurrency)", *exp == "e15", func() {
		cfg := experiments.E15Config{Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}}
		if *quick {
			cfg.Provers = 100_000
		}
		res, err := experiments.E15MillionProvers(cfg)
		if err != nil {
			fail(fmt.Errorf("e15: %w", err))
			return
		}
		fmt.Fprint(stdout, experiments.RenderE15(res))
		writeCSV("e15.csv", func(w io.Writer) error { return experiments.E15CSV(w, res) })
	})
	run("E16: zero-stall incremental checkpointing under fleet ingest", *exp == "e16", func() {
		cfg := experiments.E16Config{Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}}
		if *quick {
			cfg.Provers = 100_000
		}
		res, err := experiments.E16ZeroStallCheckpoint(cfg)
		if err != nil {
			fail(fmt.Errorf("e16: %w", err))
			return
		}
		fmt.Fprint(stdout, experiments.RenderE16(res))
		writeCSV("e16.csv", func(w io.Writer) error { return experiments.E16CSV(w, res) })
	})
	run("E17: heterogeneous fleet — image registry with live golden rotation", *exp == "e17", func() {
		cfg := experiments.E17Config{Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}}
		if *quick {
			cfg.Provers = 20_000
		}
		res, err := experiments.E17HeterogeneousFleet(cfg)
		if err != nil {
			fail(fmt.Errorf("e17: %w", err))
			return
		}
		fmt.Fprint(stdout, experiments.RenderE17(res))
		writeCSV("e17.csv", func(w io.Writer) error { return experiments.E17CSV(w, res) })
	})
	run("A1: SMARM block-count ablation", *ablation == "a1", func() {
		fmt.Fprint(stdout, experiments.RenderA1(experiments.AblationSMARMBlocks(nil, trials(100), 1)))
	})
	run("A2: lock granularity ablation", *ablation == "a2", func() {
		fmt.Fprint(stdout, experiments.RenderA2(experiments.AblationLockGranularity(nil, 1)))
	})
	run("A3: ERASMUS scheduling ablation", *ablation == "a3", func() {
		fmt.Fprint(stdout, experiments.RenderA3(experiments.AblationErasmusScheduling(1)))
	})
	run("A4: swarm scale ablation", *ablation == "a4", func() {
		fmt.Fprint(stdout, experiments.RenderA4(experiments.AblationSwarmScale(nil, 1)))
	})
	run("A5: device class ablation", *ablation == "a5", func() {
		fmt.Fprint(stdout, experiments.RenderA5(experiments.AblationDeviceClass(sim.Second), sim.Second))
	})

	if !ran {
		fs.Usage()
		return errors.New("no section chosen")
	}
	return failed
}
