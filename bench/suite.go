package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runSuite is the all-workloads mode: every workload, runs times, each
// run a process of its own exactly as the driver would start it (peak
// RSS and GOMAXPROCS pins are per process), then one traced run per
// workload when tracing is asked for. The result set is written to out
// for -check.
func runSuite(cfg runConfig, runs int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	dir, err := tempDir("suite-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	set := &resultSet{Host: cfg.host, Unmeasured: unmeasured}
	code := 0
	one := func(workload string, seed uint64, trace int) {
		detail := filepath.Join(dir, fmt.Sprintf("%s-%d-%d.json", workload, seed, trace))
		args := []string{
			"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(cfg.Seconds), "-trace", strconv.Itoa(trace), "-detail", detail,
		}
		if cfg.Smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s seed %d trace %d: %v\n", workload, seed, trace, err)
			code = 1
		}
		b, err := os.ReadFile(detail)
		if err != nil {
			return // the run died before it had a result
		}
		var r runResult
		if err := json.Unmarshal(b, &r); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
			return
		}
		set.Runs = append(set.Runs, &r)
	}
	for _, w := range workloads {
		for i := 0; i < runs; i++ {
			one(w.name, cfg.Seed+uint64(i), 0)
		}
		if cfg.Trace {
			one(w.name, cfg.Seed, 1)
		}
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, _ := json.MarshalIndent(set, "", " ")
	if err := os.WriteFile(out, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("result set of %d runs written to bench/%s\n", len(set.Runs), out)
	fmt.Printf("unmeasured on this host: %s\n", strings.Join(unmeasured, ", "))
	return code
}

// runCPUSweep is the -cpu harness mode for inproc_mixed: the fleet's
// collection rounds split across w ingest goroutines at GOMAXPROCS w,
// for each w in the list. A width the host has no CPUs for still runs —
// it shows the oversubscribed figure — but is filed under unmeasured:
// it says nothing about scaling.
func runCPUSweep(cfg runConfig, list string) int {
	if cfg.Workload != wInprocMixed {
		fmt.Fprintln(os.Stderr, "bench: -cpu applies to -workload inproc_mixed")
		return 2
	}
	type point struct {
		Width      int     `json:"width"`
		VerifiedPS float64 `json:"verified_per_s"`
		Rounds     int     `json:"rounds"`
	}
	var sweep struct {
		Host       hostInfo `json:"host"`
		Measured   []point  `json:"measured"`
		Unmeasured []point  `json:"unmeasured"`
	}
	sweep.Host = cfg.host
	per := time.Duration(cfg.Seconds) * cfg.sz.second / 4
	for _, s := range strings.Split(list, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || w < 1 {
			fmt.Fprintf(os.Stderr, "bench: -cpu %q: widths are positive integers\n", list)
			return 2
		}
		prev := runtime.GOMAXPROCS(w)
		c := cfg
		c.Workers = w
		rig, err := setupInproc(c, newOracle(), func() {})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		var rates []float64
		for deadline := time.Now().Add(per); time.Now().Before(deadline) || len(rates) == 0; {
			in, err := rig.prepare(rig.round)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			t := rig.runParallel(in)
			rates = append(rates, float64(t.accepted)/t.wall.Seconds())
		}
		counts := rig.srv.Counts()
		want := uint64((len(rates) + 1) * len(rig.fl.names) * rig.fl.history)
		rig.srv.Close()
		runtime.GOMAXPROCS(prev)
		replayed := uint64(rig.warmed) * uint64(rig.fl.history) // the set-up's warm-up
		if counts.Accepted != want || counts.Rejected != replayed {
			fmt.Fprintf(os.Stderr, "bench: width %d: accepted %d rejected %d, expected %d and %d\n", w, counts.Accepted, counts.Rejected, want, replayed)
			return 1
		}
		p := point{Width: w, VerifiedPS: median(rates), Rounds: len(rates)}
		if w <= cfg.host.NProc {
			sweep.Measured = append(sweep.Measured, p)
			fmt.Printf("cpu %d: %12.0f verified/s over %d rounds\n", w, p.VerifiedPS, p.Rounds)
		} else {
			sweep.Unmeasured = append(sweep.Unmeasured, p)
			fmt.Printf("cpu %d: %12.0f verified/s over %d rounds  UNMEASURED: host has %d CPUs\n", w, p.VerifiedPS, p.Rounds, cfg.host.NProc)
		}
	}
	if err := os.MkdirAll("out", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, _ := json.MarshalIndent(sweep, "", " ")
	if err := os.WriteFile(filepath.Join("out", "cpu_sweep.json"), b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("unmeasured: %s (and every width above nproc); written to bench/out/cpu_sweep.json\n", strings.Join(unmeasured, ", "))
	return 0
}
