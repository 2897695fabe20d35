// Command bench is the repository's one benchmark harness: four named
// workloads, end-to-end metrics with fixed regression bounds, per-layer
// metrics from a traced run, an expected-outcome oracle over every op,
// and a comparator for two result sets. See README.md.
//
// It is a module of its own (the repository root's BENCHMARK.json names
// it), so run it from the repository root as
//
//	go run -C bench saferatt/bench                       # all four workloads
//	go run -C bench saferatt/bench -trace 1              # ... plus the traced runs
//	go run -C bench saferatt/bench -workload wire_smart -smoke
//	go run -C bench saferatt/bench -workload inproc_mixed -cpu 1,2,4,8
//	go run -C bench saferatt/bench -check results/A.json results/B.json
//
// The driver's form — one workload, one run, one JSON line last — is
//
//	go run -C bench saferatt/bench --workload W --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"saferatt/internal/sim"
)

// sizes fixes how big each workload is. full is what BENCHMARK.json
// runs; toy is the same code at a scale the unit tests can afford.
type sizes struct {
	setupReps int // set-ups per run; setup_s is the fastest of them, piece by piece
	// warm is how long a set-up runs its workload's steady traffic once
	// everything is built and enrolled, before the window may start.
	warm time.Duration
	// second is how long one second of -seconds lasts (a real one at
	// full size); a wire window is cut into slicesPerSecond slices of it.
	second time.Duration

	erasmusProvers int
	erasmusDepth   int     // most collection bundles in flight
	erasmusRate    float64 // collection bundles per second offered
	probes         int     // post-restore replay / fresh probes

	smartProvers int
	smartRate    float64 // exchanges per second offered
	smartSide    int     // seconds per side step (traced run only)

	inprocProvers int
	inprocChunk   int // Ingest calls per slice of an inproc_mixed round

	simTable1Trials int
	simE6Sweeps     int // E6 grid sweeps per script unit
	simE6Trials     int // trials per E6 cell
	simE12Fleets    int // E12 fleets per mode per script unit
	simE12Devices   int
	simE12Horizon   sim.Duration

	layerBudget time.Duration // measuring time per layer microbenchmark
	ckptFleet   int           // provers behind the persistence microbenchmarks
}

// slicesPerSecond is how finely a wire window is cut: a tenth of a
// second holds thousands of collections and hundreds of exchanges, and
// is shorter than the seconds-long disturbances of a shared host.
const slicesPerSecond = 10

// The driver allows 4 + 22 runs per workload inside 3420 s, builds
// included — some 35 s per run all told. That is what holds the wire
// fleets at 50 000 and 20 000 provers (the warm-up round enrols every
// one of them, several times per run, outside the window) and the E12
// fleets at a scale where one takes a few milliseconds.
var fullSizes = sizes{
	setupReps:       3,
	warm:            time.Second,
	second:          time.Second,
	erasmusProvers:  50_000,
	erasmusDepth:    64,
	erasmusRate:     20_000,
	probes:          1000,
	smartProvers:    20_000,
	smartRate:       2000,
	smartSide:       3,
	inprocProvers:   200_000,
	inprocChunk:     4096,
	simTable1Trials: 20,
	simE6Sweeps:     16,
	simE6Trials:     25,
	simE12Fleets:    16,
	simE12Devices:   125,
	simE12Horizon:   sim.Hour,
	layerBudget:     40 * time.Millisecond,
	ckptFleet:       100_000,
}

var toySizes = sizes{
	setupReps:       1,
	warm:            20 * time.Millisecond,
	second:          100 * time.Millisecond,
	erasmusProvers:  300,
	erasmusDepth:    16,
	erasmusRate:     4000,
	probes:          50,
	smartProvers:    200,
	smartRate:       400,
	smartSide:       1,
	inprocProvers:   2000,
	inprocChunk:     256,
	simTable1Trials: 2,
	simE6Sweeps:     1,
	simE6Trials:     5,
	simE12Fleets:    1,
	simE12Devices:   100,
	simE12Horizon:   sim.Hour,
	layerBudget:     2 * time.Millisecond,
	ckptFleet:       2000,
}

// hostInfo states the host rules a result was produced under.
type hostInfo struct {
	NProc           int    `json:"nproc"`
	ChildGOMAXPROCS int    `json:"child_gomaxprocs"`
	GoVersion       string `json:"go"`
	Path            string `json:"path"`
}

func thisHost() hostInfo {
	n := runtime.NumCPU()
	return hostInfo{
		NProc: n, ChildGOMAXPROCS: childGOMAXPROCS(n), GoVersion: runtime.Version(),
		Path: "host loopback interface (127.0.0.1), never a link",
	}
}

type runConfig struct {
	Workload string
	Seed     uint64
	Seconds  int
	Trace    bool
	Smoke    bool
	Workers  int // inproc_mixed ingest goroutines (the -cpu sweep)
	sz       sizes
	host     hostInfo
}

// runResult is one run's outcome: the oracle's verdict and the figures.
type runResult struct {
	Workload   string    `json:"workload"`
	Seed       uint64    `json:"seed"`
	Seconds    int       `json:"seconds"`
	Trace      bool      `json:"trace"`
	Smoke      bool      `json:"smoke,omitempty"`
	Correct    bool      `json:"correct"`
	Attempted  int64     `json:"attempted"`
	Failed     int64     `json:"failed"`
	Metrics    metricSet `json:"metrics"`
	SimDigest  string    `json:"sim_digest,omitempty"`
	Problems   []string  `json:"problems,omitempty"`
	Unmeasured []string  `json:"unmeasured"`
	Host       hostInfo  `json:"host"`

	oracle *oracle
	tracer *tracer
}

func newResult(cfg runConfig) *runResult {
	return &runResult{
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace, Smoke: cfg.Smoke,
		Metrics: metricSet{}, Unmeasured: unmeasured, Host: cfg.host, oracle: newOracle(),
	}
}

func (r *runResult) logf(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// put files one figure; runOne keeps the end-to-end ones of an untraced
// run and the per-layer ones of a traced run.
func (r *runResult) put(name string, v float64, n int) { r.Metrics.put(name, v, n) }

// setUp is the set-up rule of every workload: build the rig reps times
// over, tearing down all but the last, and file setup_s as the fastest
// build, piece by piece. Every build calls lap at the same points of
// its work (after each phase, every few thousand warm-up ops), which
// cuts it into the same pieces every time; the host only ever adds time
// to a piece, so setup_s is the sum over the pieces of the fastest each
// one ran. The caller tears down the rig it gets back.
func setUp[R interface{ teardown() }](res *runResult, reps int, build func(lap func()) (R, error)) (R, error) {
	var rig R
	var best []float64 // seconds, per piece
	for i := 0; i < reps; i++ {
		if i > 0 {
			rig.teardown()
		}
		var pieces []float64
		last := time.Now()
		lap := func() {
			now := time.Now()
			pieces = append(pieces, now.Sub(last).Seconds())
			last = now
		}
		var err error
		if rig, err = build(lap); err != nil {
			return rig, err
		}
		lap()
		if i == 0 {
			best = pieces
		}
		if len(pieces) != len(best) {
			return rig, fmt.Errorf("set-up %d was %d pieces of work, the first %d", i, len(pieces), len(best))
		}
		for k, took := range pieces {
			best[k] = min(best[k], took)
		}
	}
	var sum float64
	for _, took := range best {
		sum += took
	}
	res.put("setup_s", sum, reps*len(best))
	return rig, nil
}

// latency files the window's latency figures: the quiet quantile over
// slices of the per-slice median (end to end), and from every sample of
// the window its p99 and the highest percentile that still has ten
// samples beyond it (per layer: the tail does not repeat well enough
// for a bound).
func (r *runResult) latency(l *sliceStats) (p50 float64, n int) {
	p50, n = l.p50()
	tail, tailLabel, top, topLabel := l.whole()
	r.put("op_p50_ms", p50, n)
	r.put("op.p99_ms", tail, n)
	r.Metrics.note("op.p99_ms", tailLabel+" of the whole window")
	r.put("op.top_ms", top, n)
	r.Metrics.note("op.top_ms", topLabel+" of the whole window")
	r.logf("latency: p50 %.4f ms (quiet quantile over %d slices), whole-window %s %.4f ms, %s %.4f ms, %d samples",
		p50, len(l.slices), tailLabel, tail, topLabel, top, n)
	return p50, n
}

// lateness files how late the generator itself ran: send instant minus
// due instant, per op.
func (r *runResult) lateness(lates []float64) {
	tail, label := tailPercentile(sortedCopy(lates))
	r.put("gen.late_p99_ms", tail, len(lates))
	r.Metrics.note("gen.late_p99_ms", label)
	r.logf("generator lateness %s = %.3f ms over %d ops", label, tail, len(lates))
}

// daemonCounters files a child daemon's exit-line counters.
func (r *runResult) daemonCounters(st *daemonStats) {
	r.put("rattd.accepted", float64(st.Accepted), 0)
	r.put("rattd.rejected", float64(st.Rejected), 0)
	r.put("rattd.replays", float64(st.Replays), 0)
	r.put("rattd.challenges", float64(st.Challenges), 0)
	r.put("rattd.enrolled", float64(st.Enrolled), 0)
	r.put("transport.daemon_qdrop", float64(st.NetQdrop), 0)
	r.put("transport.daemon_dup", float64(st.NetDup), 0)
	r.put("transport.daemon_malformed", float64(st.NetMalformed), 0)
	r.put("transport.daemon_batches_rx", float64(st.BatchesRx), 0)
	r.put("transport.daemon_batches_tx", float64(st.BatchesTx), 0)
}

var workloadFns = map[string]func(runConfig, *runResult) error{
	wWireErasmus: runWireErasmus,
	wWireSmart:   runWireSmart,
	wInprocMixed: runInprocMixed,
	wSimPaper:    runSimPaper,
}

// runOne runs one workload once and settles the result: the oracle is
// closed, units are attached, and the metric set is checked to be
// exactly what the mode promises (every end-to-end metric untraced,
// every per-layer metric traced; a per-layer metric the workload does
// not exercise reads 0).
func runOne(cfg runConfig) (*runResult, error) {
	fn := workloadFns[cfg.Workload]
	if fn == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.Workload, strings.Join(workloadNames(), ", "))
	}
	res := newResult(cfg)
	// The wire workloads pin GOMAXPROCS; give it back afterwards.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	if err := fn(cfg, res); err != nil {
		return nil, fmt.Errorf("%s: %v", cfg.Workload, err)
	}
	res.oracle.close()
	res.Correct = res.oracle.correct()
	res.Attempted, res.Failed = res.oracle.attempted, res.oracle.failed
	res.Problems = res.oracle.problems
	if res.tracer != nil {
		path, err := res.tracer.write(cfg.Workload)
		if err != nil {
			return nil, err
		}
		res.logf("trace: %d spans written to bench/%s", len(res.tracer.spans), path)
	}

	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	final := metricSet{}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok {
			if !cfg.Trace || d.measuredOn(cfg.Workload) {
				return nil, fmt.Errorf("%s: metric %s was not produced", cfg.Workload, d.name)
			}
			v.Note = "not exercised by this workload"
		}
		v.Unit = d.unit
		final[d.name] = v
	}
	res.Metrics = final
	return res, nil
}

// print renders the result for people, then (driver form) the one JSON
// line the driver reads.
func (r *runResult) print(driverLine bool) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	fmt.Printf("workload %s seed %d seconds %d trace %v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	fmt.Printf("host: nproc %d, generator one process one socket, rattd child GOMAXPROCS %d, traffic over the %s\n",
		r.Host.NProc, r.Host.ChildGOMAXPROCS, r.Host.Path)
	fmt.Printf("unmeasured on this host: %s\n", strings.Join(r.Unmeasured, ", "))
	for _, d := range defs {
		v := r.Metrics[d.name]
		extra := ""
		if v.N > 0 {
			extra = fmt.Sprintf(" n=%d", v.N)
		}
		if v.Note != "" {
			extra += " (" + v.Note + ")"
		}
		fmt.Printf("  %-42s %16.4f %-6s%s\n", d.name, v.Value, v.Unit, extra)
	}
	if r.SimDigest != "" {
		fmt.Printf("  sim_digest %s\n", r.SimDigest)
	}
	fmt.Print(r.oracle.render())
	if !driverLine {
		return
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for name, v := range r.Metrics {
		line.Metrics[name] = mv{v.Value, v.Unit}
	}
	b, _ := json.Marshal(line)
	fmt.Println(string(b))
}

func main() { os.Exit(realMain()) }

func realMain() (code int) {
	var (
		workload = flag.String("workload", "", "run one workload ("+strings.Join(workloadNames(), ", ")+"); empty runs all four")
		seed     = flag.Uint64("seed", 1, "workload seed: inputs are a pure function of it")
		seconds  = flag.Int("seconds", 0, "measured window per run in seconds (0 = run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans written to bench/out/trace.json")
		smoke    = flag.Bool("smoke", false, "3 s window for use while developing; results are marked and never compared")
		cpus     = flag.String("cpu", "", "inproc_mixed only: sweep ingest goroutines over this list, e.g. 1,2,4,8")
		check    = flag.Bool("check", false, "compare two result sets: -check A.json B.json")
		runs     = flag.Int("runs", 1, "all-workloads mode: runs per workload, seeds seed..seed+runs-1")
		out      = flag.String("out", "out/results.json", "all-workloads mode: where the result set is written")
		detail   = flag.String("detail", "", "also write this run's full result (sample counts, digest) to a file")
	)
	flag.Parse()

	// Nothing the harness starts may outlive it: clean up on return, on
	// a panic in this goroutine, on a signal, and when the watchdog
	// fires (the driver's limit for one run is 180 s).
	defer runCleanups()
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(os.Stderr, "bench: panic: %v\n%s", p, debug.Stack())
			code = 2
		}
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		runCleanups()
		os.Exit(130)
	}()

	if *check {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -check A.json B.json")
			return 2
		}
		return runCheck(flag.Arg(0), flag.Arg(1), os.Stdout)
	}

	man, err := loadManifest()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	cfg := runConfig{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Smoke: *smoke,
		sz: fullSizes, host: thisHost(),
	}
	if cfg.Seconds <= 0 {
		cfg.Seconds = man.RunSeconds
	}
	if cfg.Smoke {
		cfg.Seconds = 3
		cfg.sz.setupReps = 1
	}

	if *workload == "" {
		return runSuite(cfg, *runs, *out)
	}
	if *cpus != "" {
		return runCPUSweep(cfg, *cpus)
	}

	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "bench: run exceeded 170 s, giving up")
		runCleanups()
		os.Exit(3)
	})
	defer watchdog.Stop()

	res, err := runOne(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *detail != "" {
		b, _ := json.MarshalIndent(res, "", " ")
		if err := os.WriteFile(*detail, b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	res.print(true)
	if !res.Correct {
		// The result line is printed (the driver counts the failed
		// ops); people and scripts get the exit code.
		return 1
	}
	return 0
}
