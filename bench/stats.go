package main

import (
	"math"
	"sort"
)

// percentileLadder lists the percentiles the harness is willing to
// report, highest first.
var percentileLadder = []struct {
	p     float64
	label string
	one   int // the percentile leaves one sample in this many beyond it
}{
	{0.9999, "p99.99", 10000},
	{0.999, "p99.9", 1000},
	{0.99, "p99", 100},
	{0.90, "p90", 10},
	{0.50, "p50", 2},
}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: fewer and the figure is one or two outliers, not a tail.
const minBeyond = 10

// topPercentile picks the highest percentile of the ladder that still
// has at least minBeyond samples beyond it in a sample of n. ok is
// false when even the median is not supported (n < 20).
func topPercentile(n int) (p float64, label string, ok bool) {
	for _, c := range percentileLadder {
		if n >= minBeyond*c.one {
			return c.p, c.label, true
		}
	}
	return 0, "", false
}

// percentile returns the p-quantile (0 < p <= 1) of sorted, nearest
// rank. sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailPercentile is the latency-tail rule of the benchmark: p99 when
// the sample supports it (at least minBeyond samples beyond), otherwise
// the highest supported percentile, with its label so the report can
// say which one it is. An empty or tiny sample yields its maximum.
func tailPercentile(sorted []float64) (v float64, label string) {
	if len(sorted) == 0 {
		return 0, "none"
	}
	p, label, ok := topPercentile(len(sorted))
	if !ok {
		return sorted[len(sorted)-1], "max"
	}
	if p > 0.99 {
		p, label = 0.99, "p99"
	}
	return percentile(sorted, p), label
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v (0 for an empty slice); v is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns Q1 and Q3 by the exclusive method — the one
// Python's statistics.quantiles(v, n=4) uses, which is what the driver
// judges the benchmark's spread with. Needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		i := int(math.Floor(pos))
		if i < 1 {
			return s[0]
		}
		if i >= n {
			return s[n-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median — the
// run-to-run repeatability figure every bound is compared against.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

// The host these figures are taken on is shared: its neighbours slow a
// vCPU by half again for seconds at a time, never speed it up. A run's
// figure therefore comes from its least disturbed moments. The window
// is cut into short slices (a hundred or more), each yields its own
// rate or median latency, and the run reports the quiet quantile of
// those: the level the best slices reach, one slice in twenty left
// beyond it as too lucky.
const quietQuantile = 0.95

// quietHigh is the quiet quantile of a higher-is-better per-slice figure.
func quietHigh(perSlice []float64) float64 {
	if len(perSlice) == 0 {
		return 0
	}
	return percentile(sortedCopy(perSlice), quietQuantile)
}

// quietLow is the quiet quantile of a lower-is-better per-slice figure.
func quietLow(perSlice []float64) float64 {
	if len(perSlice) == 0 {
		return 0
	}
	return percentile(sortedCopy(perSlice), 1-quietQuantile)
}

// sliceStats holds latency samples (ms) by the slice they were taken in.
type sliceStats struct {
	slices [][]float64
}

func (s *sliceStats) add(slice []float64) {
	if len(slice) > 0 {
		s.slices = append(s.slices, slice)
	}
}

// minSliceSamples is how many samples a slice needs for its median to
// count towards the run's figure.
const minSliceSamples = 10

// p50 is the quiet quantile of the per-slice median latencies, with the
// number of samples behind it. A window too thin to have one slice with
// a median of its own yields the median of all its samples.
func (s *sliceStats) p50() (float64, int) {
	var p50s, all []float64
	for _, sl := range s.slices {
		all = append(all, sl...)
		if len(sl) >= minSliceSamples {
			p50s = append(p50s, percentile(sortedCopy(sl), 0.50))
		}
	}
	if len(p50s) == 0 {
		return median(all), len(all)
	}
	return quietLow(p50s), len(all)
}

// whole returns the window's tail over every sample of the run: p99 (or
// the highest percentile below it the sample supports) and the highest
// supported percentile of all, each with its label.
func (s *sliceStats) whole() (tail float64, tailLabel string, top float64, topLabel string) {
	var all []float64
	for _, sl := range s.slices {
		all = append(all, sl...)
	}
	sort.Float64s(all)
	tail, tailLabel = tailPercentile(all)
	if len(all) == 0 {
		return tail, tailLabel, 0, "none"
	}
	p, label, ok := topPercentile(len(all))
	if !ok {
		return tail, tailLabel, all[len(all)-1], "max"
	}
	return tail, tailLabel, percentile(all, p), label
}
