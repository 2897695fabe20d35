package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"time"

	"saferatt/internal/core"
	"saferatt/internal/experiments"
	"saferatt/internal/qoa"
	"saferatt/internal/sim"
	"saferatt/internal/swarm"
)

// sim_paper: the paper's simulator on a fixed script, host time only.
// One script unit is Table 1, then the E6 SMARM-escape grid swept
// simE6Sweeps times one cell at a time, then simE12Fleets E12
// self-measuring fleets per mode (ERASMUS and SeED) at T_M 2 min / T_C
// 30 min. The unit is repeated, at the same seed, until the window is
// over: every repetition must fold to the same sim_digest — the
// determinism check. Each E6 sweep and each E12 fleet is one slice of
// the window, a few tens of milliseconds of host time.

// simParallelism is fixed so that the script does the same work on any
// host; results are identical for every value (internal/parallel). It
// is 1, and the script runs at GOMAXPROCS 1: two workers on this host's
// two shared vCPUs wait for whichever a neighbour is slowing, and that
// made the rate read 2.4 M to 3.3 M events/s from one ten-run set to the
// next (README, "Measured repeatability"). parallel.speedup_2 says what
// the second worker is worth.
const simParallelism = 1

// simBallast is pointer-free heap the script never touches. The
// simulator keeps some 4 MB alive and allocates a few hundred MB a
// second, so at the default GOGC the collector runs over a hundred
// cycles a second and its share of the time, not the simulator's,
// decides the rate; with the ballast counted as live heap it runs a
// few times a second. An untouched ballast is never resident: rss_mib
// reads the ballast's worth of allocation headroom plus twice what the
// simulator keeps.
const simBallast = 64 << 20

var (
	e6Blocks = []int{16, 32, 64}
	e6Rounds = []int{1, 2, 3, 5, 8, 13}
)

const (
	e12TM = 2 * sim.Minute
	e12TC = 30 * sim.Minute
)

// noRig is the simulator's set-up result: warm caches, nothing to hold.
type noRig struct{}

func (noRig) teardown() {}

// simUnit is what one pass over the script produced.
type simUnit struct {
	digest string
	// host time per phase
	table1, e6, e12 time.Duration
	e12CPU          time.Duration
	sweeps          [][]float64 // E6 cell durations (ms), per sweep
	fleetRates      []float64   // E12 kernel events per host second, per pair of fleets
	trials          int         // Table 1 + E6 Monte Carlo trials run
	events          uint64      // E12 kernel events
	problems        []string    // violated closed-form checks
}

// simScript runs one pass over the script, calling lap after each of
// its slices.
func simScript(cfg runConfig, lap func()) *simUnit {
	sz := cfg.sz
	u := &simUnit{}
	h := sha256.New()
	violated := func(format string, args ...any) {
		u.problems = append(u.problems, fmt.Sprintf(format, args...))
	}

	// Table 1.
	start := time.Now()
	rows := experiments.Table1(experiments.Table1Config{
		Trials: sz.simTable1Trials, Seed: cfg.Seed, Parallelism: simParallelism,
	})
	u.table1 = time.Since(start)
	lap()
	for _, r := range rows {
		fmt.Fprintf(h, "table1 %+v\n", r)
		// Two adversary cells of Trials trials each per row.
		u.trials += 2 * r.Trials
		switch r.Mechanism {
		case core.SMART, core.HYDRA, core.AllLock:
			if r.SelfRelocEscape != 0 || r.TransientEscape != 0 {
				violated("table 1: %s let an adversary escape (reloc %.2f, transient %.2f)", r.Mechanism, r.SelfRelocEscape, r.TransientEscape)
			}
		case core.NoLock:
			if r.TransientEscape != 1 {
				violated("table 1: No-Lock caught transient malware (escape %.2f)", r.TransientEscape)
			}
		}
	}
	if len(rows) < 10 {
		violated("table 1: %d rows", len(rows))
	}

	// E6, one cell per call so each cell is one latency sample.
	escaped := map[[2]int]int{}
	start = time.Now()
	for sweep := 0; sweep < sz.simE6Sweeps; sweep++ {
		var cells []float64
		for _, n := range e6Blocks {
			for _, k := range e6Rounds {
				c0 := time.Now()
				r := experiments.E6SMARM(experiments.E6Config{
					BlockCounts: []int{n}, Rounds: []int{k}, Trials: sz.simE6Trials,
					Seed: cfg.Seed + uint64(sweep)*1_000_003, Parallelism: simParallelism,
				})[0]
				cells = append(cells, float64(time.Since(c0).Nanoseconds())/1e6)
				fmt.Fprintf(h, "e6 %d %+v\n", sweep, r)
				escaped[[2]int{n, k}] += r.Escaped
				u.trials += r.Trials
			}
		}
		u.sweeps = append(u.sweeps, cells)
		lap()
	}
	u.e6 = time.Since(start)
	// Escape rate against the paper's closed form (1-1/n)^(nk), pooled
	// over the sweeps; the tolerance is 2.5 half-widths of the 95%
	// interval, loose enough that no seed trips it by chance.
	pooled := sz.simE6Sweeps * sz.simE6Trials
	for _, n := range e6Blocks {
		for _, k := range e6Rounds {
			analytic := qoa.SMARMEscape(n-1, k)
			rate := float64(escaped[[2]int{n, k}]) / float64(pooled)
			if tol := 2.5*qoa.BinomialCI(analytic, pooled) + 0.02; rate < analytic-tol || rate > analytic+tol {
				violated("e6: %d blocks %d rounds escaped %.3f of %d trials, closed form %.3f ± %.3f", n, k, rate, pooled, analytic, tol)
			}
		}
	}

	// E12 fleets, one fleet per call so that a pair is one slice.
	start = time.Now()
	cpu0 := selfCPU()
	for fleet := 0; fleet < sz.simE12Fleets; fleet++ {
		var pairEvents uint64
		var pairWall int64
		for _, mode := range []swarm.SelfMode{swarm.SelfErasmus, swarm.SelfSeED} {
			r := experiments.E12FleetSelf(experiments.E12Config{
				Devices: sz.simE12Devices, Horizon: sz.simE12Horizon,
				TMs: []sim.Duration{e12TM}, TCs: []sim.Duration{e12TC}, Modes: []swarm.SelfMode{mode},
				Seed: cfg.Seed + uint64(fleet)*1_000_003, Shards: simParallelism,
			})[0]
			pairEvents += r.Events
			pairWall += r.WallNS
			// Host-cost columns are measurements, not simulated statistics.
			r.WallNS, r.EventsPerSec, r.NsPerEvent = 0, 0, 0
			fmt.Fprintf(h, "e12 %d %+v\n", fleet, r)
			if r.Detected+r.Missed != r.Infections {
				violated("e12 %s: detected %d + missed %d != infections %d", r.Mode, r.Detected, r.Missed, r.Infections)
			}
			if r.Measurements == 0 || r.Reports == 0 {
				violated("e12 %s: fleet did not measure (%d measurements, %d reports)", r.Mode, r.Measurements, r.Reports)
			}
			// Fig. 5: a detected infection waits at most one measurement
			// period (jittered under SeED) plus one collection period.
			if limit := 2*e12TM + e12TC; r.P95Latency > limit {
				violated("e12 %s: p95 detection latency %v exceeds T_M/T_C bound %v", r.Mode, r.P95Latency, limit)
			}
			if r.Infections >= 20 && r.Detected == 0 {
				violated("e12 %s: none of %d infections detected", r.Mode, r.Infections)
			}
		}
		u.events += pairEvents
		u.fleetRates = append(u.fleetRates, float64(pairEvents)/(float64(pairWall)/1e9))
		lap()
	}
	u.e12CPU = selfCPU() - cpu0
	u.e12 = time.Since(start)
	u.digest = hex.EncodeToString(h.Sum(nil))
	return u
}

func runSimPaper(cfg runConfig, res *runResult) error {
	or := res.oracle
	procs := runtime.GOMAXPROCS(1) // runOne gives it back
	ballast := make([]byte, simBallast)
	defer runtime.KeepAlive(ballast)
	// Set-up: the process-wide caches the script leans on (golden
	// digests, MAC pools, scheduler wheels) are filled by one
	// reduced-size pass.
	warm := cfg
	warm.sz.simTable1Trials, warm.sz.simE6Sweeps, warm.sz.simE12Fleets = 2, 2, 1
	// The script cannot fail, so neither can its set-up.
	_, _ = setUp(res, cfg.sz.setupReps, func(lap func()) (noRig, error) {
		simScript(warm, lap)
		// ... and E6 sweeps for the rest of the warm-up time.
		for deadline := time.Now().Add(cfg.sz.warm); time.Now().Before(deadline); {
			experiments.E6SMARM(experiments.E6Config{
				BlockCounts: e6Blocks, Rounds: e6Rounds, Trials: cfg.sz.simE6Trials, Seed: cfg.Seed, Parallelism: simParallelism,
			})
		}
		return noRig{}, nil
	})

	rss := sampleRSS(os.Getpid())
	var units []*simUnit
	for deadline := time.Now().Add(time.Duration(cfg.Seconds) * cfg.sz.second); time.Now().Before(deadline) || len(units) == 0; {
		u := simScript(cfg, func() {})
		units = append(units, u)
		or.sent("script-unit", 1)
		or.verdict("script-unit", true, len(u.problems) == 0)
		for _, p := range u.problems {
			or.problem("%s", p)
		}
		or.check(u.digest == units[0].digest, "unit %d folded to sim_digest %s, unit 0 to %s at the same seed", len(units)-1, u.digest, units[0].digest)
	}
	res.SimDigest = units[0].digest
	if err := rss.finish(res); err != nil {
		return err
	}

	var fleetRates, trialRates, t1, e6, e12 []float64
	cells := &sliceStats{}
	var events uint64
	var cpu, e12Wall time.Duration
	for _, u := range units {
		fleetRates = append(fleetRates, u.fleetRates...)
		trialRates = append(trialRates, float64(u.trials)/(u.table1+u.e6).Seconds())
		t1 = append(t1, u.table1.Seconds())
		e6 = append(e6, u.e6.Seconds())
		e12 = append(e12, u.e12.Seconds())
		for _, sweep := range u.sweeps {
			cells.add(sweep)
		}
		events += u.events
		cpu += u.e12CPU
		e12Wall += u.e12
	}
	res.put("ops_per_s", quietHigh(fleetRates), len(fleetRates))
	res.latency(cells)
	res.logf("%d script units at parallelism %d: %.0f Table 1 + E6 trials/s, %d pairs of E12 fleets of %d devices over %v virtual at %.0f events/s all told",
		len(units), simParallelism, median(trialRates), len(fleetRates), cfg.sz.simE12Devices, time.Duration(cfg.sz.simE12Horizon), float64(events)/e12Wall.Seconds())

	if cfg.Trace {
		// The simulator has no request path to put spans around: its
		// layers are timed by the script's own phases and by the
		// microbenchmarks, and tracing costs it nothing.
		res.put("trace.overhead_share", 0, 0)
		res.put("op.cpu_us", float64(cpu.Nanoseconds())/1e3/float64(events), int(events))
		res.put("op.mean_per_s", float64(events)/e12Wall.Seconds(), len(units))
		res.put("experiments.table1_s", median(t1), len(t1))
		res.put("experiments.e6_s", median(e6), len(e6))
		res.put("experiments.e12_s", median(e12), len(e12))
		res.put("experiments.trials_per_s", median(trialRates), len(trialRates))
		runtime.GOMAXPROCS(procs) // parallel.speedup_2 needs its second worker
		runSimLayers(cfg, res)
		runCoreLayers(cfg, res)
	}
	return nil
}
