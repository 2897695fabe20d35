package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateManifest = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in metrics.go")

func toyConfig(workload string, trace bool) runConfig {
	return runConfig{Workload: workload, Seed: 7, Seconds: 3, Trace: trace, sz: toySizes, host: thisHost()}
}

// runToy runs one workload at toy scale and checks what every run must
// satisfy: no failed op, and exactly the promised metric set.
func runToy(t *testing.T, workload string, trace bool) *runResult {
	t.Helper()
	res, err := runOne(toyConfig(workload, trace))
	runCleanups()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v failed=%d/%d\n%s", workload, res.Correct, res.Failed, res.Attempted, res.oracle.render())
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	if len(res.Metrics) != len(defs) {
		t.Fatalf("%s: %d metrics, want %d", workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: %s missing", workload, d.name)
		case v.Unit != d.unit:
			t.Errorf("%s: %s unit %q, want %q", workload, d.name, v.Unit, d.unit)
		case !trace && !(v.Value > 0):
			t.Errorf("%s: end-to-end %s = %v, must never be 0", workload, d.name, v.Value)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %s = %v", workload, d.name, v.Value)
		}
	}
	return res
}

func TestSimPaperToy(t *testing.T) {
	a := runToy(t, wSimPaper, false)
	b := runToy(t, wSimPaper, true)
	if a.SimDigest == "" || a.SimDigest != b.SimDigest {
		t.Fatalf("sim_digest differs between two runs at one seed: %q vs %q", a.SimDigest, b.SimDigest)
	}
	cfg := toyConfig(wSimPaper, false)
	cfg.Seed++
	if other := simScript(cfg, func() {}); other.digest == a.SimDigest {
		t.Fatal("sim_digest does not depend on the seed")
	}
}

func TestInprocMixedToy(t *testing.T) {
	runToy(t, wInprocMixed, false)
	res := runToy(t, wInprocMixed, true)
	if hit := res.Metrics["verifier.batch_hit_ratio"].Value; hit < 0.95 {
		t.Errorf("collection-dominated traffic hit the tag cache %.3f of the time, want >= 0.95", hit)
	}
	for _, c := range []string{"fresh", "seed", "replay", "forged", "spoofed"} {
		if res.oracle.class(c).sent == 0 {
			t.Errorf("class %s never sent", c)
		}
	}
	if res.Metrics["rattd.enrolled_per_legit_prover"].Value <= 1 {
		t.Error("spoofed names did not show up in enrolled_per_legit_prover")
	}
}

// The oracle must catch a wrong outcome produced by the real code
// path: hand the workload "replays" that are in fact fresh counters,
// so the server accepts bundles the generator marked for rejection.
func TestOracleCatchesSpuriousAccept(t *testing.T) {
	cfg := toyConfig(wInprocMixed, false)
	or := newOracle()
	rig, err := setupInproc(cfg, or, func() {})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.srv.Close()
	in, err := rig.prepare(rig.round)
	if err != nil {
		t.Fatal(err)
	}
	later, err := rig.fl.bundle(rig.round + 5)
	if err != nil {
		t.Fatal(err)
	}
	rig.prev = values(later) // not a replay at all
	rig.run(in, nil)
	or.close()
	if or.correct() || or.class("replay").wrong == 0 {
		t.Fatalf("spuriously accepted replays went unnoticed:\n%s", or.render())
	}
	res := &runResult{oracle: or, Correct: or.correct()}
	if res.Correct {
		t.Fatal("a run with a wrong verdict reads as correct")
	}
}

func TestOracle(t *testing.T) {
	or := newOracle()
	or.sent("fresh", 3)
	or.verdict("fresh", true, true)
	or.verdict("fresh", true, true)
	or.close() // one op never resolved
	if or.correct() || or.failed != 1 || or.class("fresh").lost != 1 {
		t.Fatalf("unresolved op not counted as failed:\n%s", or.render())
	}
	or = newOracle()
	or.sent("replay", 2)
	or.verdict("replay", false, false)
	or.verdict("replay", false, true) // spurious accept
	or.close()
	if or.failed != 1 || or.class("replay").wrong != 1 {
		t.Fatalf("spurious accept not counted:\n%s", or.render())
	}
	or = newOracle()
	or.check(true, "fine")
	or.check(false, "counters disagree: %d", 3)
	if or.attempted != 2 || or.failed != 1 || !strings.Contains(or.render(), "counters disagree: 3") {
		t.Fatalf("check bookkeeping wrong:\n%s", or.render())
	}
}

func TestWireErasmusToy(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a child rattd")
	}
	paced := runToy(t, wWireErasmus, false)
	// The paced loop delivers what it offers: 4 reports a bundle.
	if got, want := paced.Metrics["ops_per_s"].Value, 4*toySizes.erasmusRate; got < 0.9*want || got > 1.1*want {
		t.Errorf("paced loop verified %.0f reports/s, offered %.0f", got, want)
	}
	res := runToy(t, wWireErasmus, true)
	if n := res.oracle.class("replay-after-restore"); n.sent == 0 || n.rejected != n.sent {
		t.Errorf("post-restore replay probe: %+v", *n)
	}
	if n := res.oracle.class("fresh-after-restore"); n.sent == 0 || n.accepted != n.sent {
		t.Errorf("post-restore fresh probe: %+v", *n)
	}
	if hit := res.Metrics["verifier.batch_hit_ratio"].Value; hit < 0.95 {
		t.Errorf("collection traffic hit the tag cache %.3f of the time, want >= 0.95", hit)
	}
	if res.Metrics["rattd.restore_s"].Value <= 0 || res.Metrics["ladder.net_xproc_ns_per_report"].Value <= 0 {
		t.Error("restore or ladder figures missing")
	}
	if got := res.Metrics["erasmus.capacity_per_s"].Value; got <= 0 {
		t.Errorf("closed-loop capacity %v reports/s", got)
	}
	if _, err := os.Stat(filepath.Join("out", "trace.json")); err != nil {
		t.Errorf("traced run left no trace: %v", err)
	}
}

func TestWireSmartToy(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a child rattd")
	}
	runToy(t, wWireSmart, false)
	res := runToy(t, wWireSmart, true)
	if hit := res.Metrics["verifier.batch_hit_ratio"].Value; hit > 0.05 {
		t.Errorf("SMART traffic hit the tag cache %.3f of the time, want ~0", hit)
	}
	if res.Metrics["rattd.enrolled"].Value != 0 {
		t.Error("the SMART path enrolled provers")
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n     int
		label string
		ok    bool
	}{
		{5, "", false}, {19, "", false}, {20, "p50", true}, {99, "p50", true}, {100, "p90", true},
		{999, "p90", true}, {1000, "p99", true}, {9999, "p99", true}, {10000, "p99.9", true}, {100000, "p99.99", true},
	} {
		_, label, ok := topPercentile(c.n)
		if label != c.label || ok != c.ok {
			t.Errorf("topPercentile(%d) = %q, %v; want %q, %v", c.n, label, ok, c.label, c.ok)
		}
	}
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if v := percentile(s, 0.99); v != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (exactly 10 samples beyond)", v)
	}
	if v, label := tailPercentile(s[:500]); label != "p90" || v != 450 {
		t.Errorf("tail of 500 samples = %v %s, want 450 p90", v, label)
	}
	if v, label := tailPercentile(s[:7]); label != "max" || v != 7 {
		t.Errorf("tail of 7 samples = %v %s, want the maximum", v, label)
	}
}

// The quiet quantile takes a run's figure from its best slices, one in
// twenty left beyond it, and judges latency slice by slice.
func TestQuietQuantile(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if hi, lo := quietHigh(v), quietLow(v); hi != 95 || lo != 5 {
		t.Errorf("quiet quantiles of 1..100 = %v, %v; want 95, 5", hi, lo)
	}
	if quietHigh(nil) != 0 || quietLow(nil) != 0 {
		t.Error("quiet quantiles of nothing are not 0")
	}
	// Twenty slices whose medians are 1..20 ms, each of 11 samples, and
	// one slice too thin to have a median of its own.
	s := &sliceStats{}
	for m := 1; m <= 20; m++ {
		sl := make([]float64, 11)
		for i := range sl {
			sl[i] = float64(m) + float64(i-5)/100
		}
		s.add(sl)
	}
	s.add([]float64{0.001})
	if p50, n := s.p50(); p50 != 1 || n != 221 {
		t.Errorf("p50 = %v over %d samples, want the quietest slice's median 1 over 221", p50, n)
	}
	thin := &sliceStats{}
	thin.add([]float64{3, 1, 2})
	if p50, _ := thin.p50(); p50 != 2 {
		t.Errorf("a thin window's p50 = %v, want the median of all its samples", p50)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if s := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); s != 1 {
		t.Fatalf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"same", steady, steady, "lower", 0.10, verdictOK},
		{"slower beyond bound", steady, []float64{120, 121, 119, 120, 122}, "lower", 0.10, verdictRegressed},
		{"slower within bound", steady, []float64{105, 106, 104, 105, 107}, "lower", 0.10, verdictOK},
		{"throughput fell", steady, []float64{80, 81, 79, 80, 82}, "higher", 0.10, verdictRegressed},
		{"throughput rose", steady, []float64{120, 121, 119, 120, 122}, "higher", 0.10, verdictOK},
		{"noisy", []float64{60, 100, 140, 80, 120}, []float64{70, 110, 150, 90, 130}, "lower", 0.10, verdictUnresolved},
		{"noisy but every run better", []float64{60, 100, 140, 80, 120}, []float64{10, 20, 30, 15, 25}, "lower", 0.10, verdictOK},
		{"no runs", steady, nil, "lower", 0.10, verdictUnresolved},
	} {
		if got, _, _, _ := judge(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	bound := 0.10
	man := &manifest{EndToEnd: []manifestMetric{{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: &bound}}}
	man.Workloads = append(man.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: wSimPaper})
	set := func(rate float64, failed int64, digest string) *resultSet {
		rs := &resultSet{}
		for i := 0; i < 5; i++ {
			rs.Runs = append(rs.Runs, &runResult{
				Workload: wSimPaper, Seed: uint64(i), Attempted: 10, Failed: failed, SimDigest: digest,
				Metrics: metricSet{"ops_per_s": {Value: rate + float64(i), Unit: "1/s"}},
			})
		}
		return rs
	}
	var out bytes.Buffer
	if code := compare(man, set(1000, 0, "d"), set(1001, 0, "d"), &out); code != 0 {
		t.Errorf("identical sets: exit %d\n%s", code, out.String())
	}
	if code := compare(man, set(1000, 0, "d"), set(800, 0, "d"), &out); code == 0 {
		t.Error("a 20% throughput drop passed")
	}
	if code := compare(man, set(1000, 0, "d"), set(1000, 1, "d"), &out); code == 0 {
		t.Error("a rise in failed ops passed")
	}
	out.Reset()
	if code := compare(man, set(1000, 0, "d"), set(1000, 0, "e"), &out); code == 0 || !strings.Contains(out.String(), "sim_digest differs") {
		t.Errorf("a digest change at equal seeds passed:\n%s", out.String())
	}
	// Smoke and traced runs are never compared.
	smoke := set(10, 0, "d")
	for _, r := range smoke.Runs {
		r.Smoke = true
	}
	if got := smoke.values(wSimPaper, "ops_per_s"); len(got) != 0 {
		t.Errorf("smoke runs entered a comparison: %v", got)
	}
}

// Golden lines in cmd/rattd's exact format (main.go's log.Printf calls,
// log's default timestamp prefix included).
func TestParseDaemonLines(t *testing.T) {
	serving := `2026/09/30 04:00:00 rattd: shard 0/1 serving on 127.0.0.1:41234 as "rattd" (image seed=42 65536 bytes in 1024-byte blocks)`
	if addr, ok := parseServing(serving); !ok || addr != "127.0.0.1:41234" {
		t.Fatalf("parseServing = %q, %v", addr, ok)
	}
	servingImages := `2026/09/30 04:00:00 rattd: shard 1/2 serving on [::1]:9780 as "rattd1" (images sensor,gateway, default sensor@v1, 256-byte blocks)`
	if addr, ok := parseServing(servingImages); !ok || addr != "[::1]:9780" {
		t.Fatalf("parseServing = %q, %v", addr, ok)
	}
	if _, ok := parseServing("2026/09/30 04:00:00 rattd: draining"); ok {
		t.Fatal("parseServing matched a non-serving line")
	}

	var st daemonStats
	stats := `2026/09/30 04:00:30 rattd: challenges=12 accepted=3456 rejected=7 replays=5 enrolled=200 balance=1.000 | net rx=900 dup=2 malformed=1 qdrop=4 batches rx=30 tx=40 coalesced=850`
	if matched, err := parseStatsLine(stats, &st); !matched || err != nil {
		t.Fatalf("stats line: matched=%v err=%v", matched, err)
	}
	want := daemonStats{Challenges: 12, Accepted: 3456, Rejected: 7, Replays: 5, Enrolled: 200, Balance: 1,
		NetRx: 900, NetDup: 2, NetMalformed: 1, NetQdrop: 4, BatchesRx: 30, BatchesTx: 40, Coalesced: 850}
	if st != want {
		t.Fatalf("stats line parsed to %+v\nwant %+v", st, want)
	}
	ckpt := `2026/09/30 04:00:30 rattd: ckpt full=2 delta=9 compact=1 skip=3 err=0 | last write 1.234ms 5120B dirty=17 pending-dirty=4`
	if matched, err := parseStatsLine(ckpt, &st); !matched || err != nil {
		t.Fatalf("ckpt line: matched=%v err=%v", matched, err)
	}
	if !st.HasCkpt || st.CkptFulls != 2 || st.CkptDeltas != 9 || st.CkptCompactions != 1 || st.CkptSkips != 3 ||
		st.CkptErrors != 0 || st.CkptLastWrite != 1234*time.Microsecond || st.CkptLastBytes != 5120 ||
		st.CkptLastDirty != 17 || st.CkptPending != 4 {
		t.Fatalf("ckpt line parsed to %+v", st)
	}
	// An idle tier prints balance=+Inf when one shard has seen nothing.
	if _, err := parseStatsLine(strings.Replace(stats, "balance=1.000", "balance=+Inf", 1), &st); err != nil || !math.IsInf(st.Balance, 1) {
		t.Fatalf("balance=+Inf: %v %v", st.Balance, err)
	}
	// A field going missing is an error, not a zero.
	if _, err := parseStatsLine(strings.Replace(stats, " qdrop=4", "", 1), &st); err == nil {
		t.Fatal("a stats line without qdrop= parsed")
	}
	if matched, _ := parseStatsLine("2026/09/30 04:00:00 rattd: draining", &st); matched {
		t.Fatal("parseStatsLine matched an unrelated line")
	}
}

func TestTracerSelfTime(t *testing.T) {
	trc := newTracer(1)
	t0 := trc.t0
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	root := trc.add("op", at(0), at(100), -1, 1)
	trc.add("send", at(0), at(10), root, 1)
	trc.add("wait", at(10), at(90), root, 1)
	self := trc.selfTimes()
	if got := self["op"][0]; got != 10 {
		t.Errorf("op self time %v us, want 100 - 10 - 80 = 10", got)
	}
	if got := self["wait"][0]; got != 80 {
		t.Errorf("wait self time %v us, want 80", got)
	}
	trc.paused.Store(true)
	if trc.sampled(64) {
		t.Error("a paused tracer sampled an op")
	}
	var none *tracer
	if none.sampled(0) {
		t.Error("a nil tracer sampled an op")
	}
}

// BENCHMARK.json and the tables in metrics.go must name the same
// workloads and metrics, with the same units, directions and bounds.
func TestManifestMatchesTables(t *testing.T) {
	if *updateManifest {
		writeManifest(t)
	}
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the tables", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if man.Workloads[i].Name != w.name || man.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v vs %+v", i, man.Workloads[i], w)
		}
	}
	same := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the tables", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: %+v vs %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound %v vs %v", kind, d.name, g.Bound, d.bound)
			}
			if bounded && (d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, d.name, d.bound)
			}
		}
	}
	same("end_to_end", man.EndToEnd, endToEnd, true)
	same("per_layer", man.PerLayer, perLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the manifest's limits", len(perLayer), len(endToEnd))
	}
	hasSetup := false
	for _, d := range endToEnd {
		hasSetup = hasSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s among the end-to-end metrics")
	}
}

func writeManifest(t *testing.T) {
	m := manifest{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: 20}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.name, d.unit, d.better, &bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.name, d.unit, d.better, nil})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("..", "BENCHMARK.json"), append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
