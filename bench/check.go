package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// manifest mirrors BENCHMARK.json at the repository root: the names,
// units and regression bounds every comparison is judged by.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadManifest reads BENCHMARK.json from the directory above the bench
// module (the harness runs with the module as its working directory).
func loadManifest() (*manifest, error) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %v", err)
	}
	if m.RunSeconds < 1 {
		return nil, fmt.Errorf("BENCHMARK.json: run_seconds %d", m.RunSeconds)
	}
	return &m, nil
}

// resultSet is what the all-workloads mode writes and -check reads:
// every run of a session, traced and untraced.
type resultSet struct {
	Host       hostInfo     `json:"host"`
	Unmeasured []string     `json:"unmeasured"`
	Runs       []*runResult `json:"runs"`
}

func loadResultSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &rs, nil
}

// comparable runs of one workload: untraced, full-length.
func (rs *resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range rs.Runs {
		if r.Workload == workload && !r.Trace && !r.Smoke {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares one metric on one workload: a are the parent's runs,
// b the change's. A metric whose run-to-run spread (inter-quartile
// distance over median, on either side) is wider than its bound cannot
// be told apart from noise: it is unresolved, not unchanged — unless
// every run of b reads better than every run of a.
func judge(a, b []float64, better string, bound float64) (verdict string, worse, spreadA, spreadB float64) {
	if len(a) == 0 || len(b) == 0 {
		return verdictUnresolved, 0, 0, 0
	}
	ma, mb := median(a), median(b)
	spreadA, spreadB = spread(a), spread(b)
	lower := better == "lower"
	if ma != 0 {
		if lower {
			worse = (mb - ma) / ma
		} else {
			worse = (ma - mb) / ma
		}
	}
	if spreadA > bound || spreadB > bound {
		if allBetter(a, b, lower) {
			return verdictOK, worse, spreadA, spreadB
		}
		return verdictUnresolved, worse, spreadA, spreadB
	}
	if worse > bound {
		return verdictRegressed, worse, spreadA, spreadB
	}
	return verdictOK, worse, spreadA, spreadB
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, lower bool) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if lower {
		return sb[len(sb)-1] < sa[0]
	}
	return sb[0] > sa[len(sa)-1]
}

// runCheck is the -check mode: one row per workload x end-to-end
// metric, then the failed-op and digest checks. The exit code is
// non-zero on any regression, on a rise in failed ops, and on a
// sim_digest that differs between the two sets at the same seed.
func runCheck(pathA, pathB string, w io.Writer) int {
	man, err := loadManifest()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	a, err := loadResultSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadResultSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return compare(man, a, b, w)
}

func compare(man *manifest, a, b *resultSet, w io.Writer) int {
	bad := 0
	fmt.Fprintf(w, "%-14s %-14s %14s %14s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "median A", "median B", "worse", "iqr A", "iqr B", "bound", "verdict")
	for _, wl := range man.Workloads {
		for _, m := range man.EndToEnd {
			if m.Bound == nil {
				continue
			}
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			verdict, worse, sa, sb := judge(va, vb, m.Better, *m.Bound)
			if verdict == verdictRegressed {
				bad++
			}
			fmt.Fprintf(w, "%-14s %-14s %14.4f %14.4f %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s (%d vs %d runs)\n",
				wl.Name, m.Name, median(va), median(vb), 100*worse, 100*sa, 100*sb, 100**m.Bound, verdict, len(va), len(vb))
		}
	}

	failed := func(rs *resultSet) (failed, attempted int64) {
		for _, r := range rs.Runs {
			failed += r.Failed
			attempted += r.Attempted
		}
		return
	}
	fa, na := failed(a)
	fb, nb := failed(b)
	ratio := func(f, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(f) / float64(n)
	}
	fmt.Fprintf(w, "failed_ops_ratio: A %d/%d, B %d/%d\n", fa, na, fb, nb)
	if ratio(fb, nb) > ratio(fa, na) {
		fmt.Fprintln(w, "failed_ops_ratio rose: regressed")
		bad++
	}

	digests := map[uint64]string{}
	for _, r := range a.Runs {
		if r.SimDigest != "" && !r.Smoke {
			digests[r.Seed] = r.SimDigest
		}
	}
	for _, r := range b.Runs {
		if want, ok := digests[r.Seed]; ok && r.SimDigest != "" && !r.Smoke && r.SimDigest != want {
			fmt.Fprintf(w, "sim_digest differs at seed %d: A %s, B %s\n", r.Seed, want, r.SimDigest)
			bad++
		}
	}
	if len(a.Unmeasured)+len(b.Unmeasured) > 0 {
		fmt.Fprintf(w, "unmeasured (no verdict possible on these hosts): A %v, B %v\n", a.Unmeasured, b.Unmeasured)
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d regression(s)\n", bad)
		return 1
	}
	fmt.Fprintln(w, "no regression")
	return 0
}
