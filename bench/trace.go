package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded by the harness around its own
// calls into a layer (stamps inside the daemon are a later change).
// Spans of one op share Op; Parent indexes the enclosing span, -1 for
// an op's root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     uint64 `json:"op"`
}

// tracer keeps spans in memory and writes them out when the run ends.
// A nil tracer records nothing, so untraced runs pay one nil check.
type tracer struct {
	every uint64 // sample one op in every
	t0    time.Time
	// paused suspends sampling. A traced run records spans in every
	// other time slice only, so the slices in between measure the same
	// system at the same moment without tracing: their difference is
	// the tracing overhead.
	paused atomic.Bool

	mu    sync.Mutex
	spans []span
}

// traceSampling is the one-in-N op sampling of the throughput
// workloads (the open-loop SMART workload traces every op).
const traceSampling = 64

func newTracer(every uint64) *tracer {
	return &tracer{every: every, t0: time.Now()}
}

// sampled reports whether op is one of the ops this tracer records.
func (t *tracer) sampled(op uint64) bool {
	return t != nil && op%t.every == 0 && !t.paused.Load()
}

// tracedSlice is the alternation rule: odd slices are traced.
func tracedSlice(i int) bool { return i%2 == 1 }

// add records one span and returns its index for use as a parent.
func (t *tracer) add(name string, start, end time.Time, parent int32, op uint64) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
		Parent: parent, Op: op,
	})
	return int32(len(t.spans) - 1)
}

// selfTimes returns, per span name, each span's self time in
// microseconds: its duration minus what its direct children cover.
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for i, s := range t.spans {
		self := s.End - s.Start - child[i]
		if self < 0 {
			self = 0
		}
		out[s.Name] = append(out[s.Name], float64(self)/1e3)
	}
	return out
}

// putSpanMetrics stores the median self time of each named span under
// span.<name>_us, the name's dots turned into underscores.
func (t *tracer) putSpanMetrics(ms metricSet, names ...string) {
	self := t.selfTimes()
	for _, n := range names {
		ms.put("span."+strings.ReplaceAll(n, ".", "_")+"_us", median(self[n]), len(self[n]))
	}
}

// write dumps the spans to out/trace.json beside the harness.
func (t *tracer) write(workload string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll("out", 0o755); err != nil {
		return "", err
	}
	path := filepath.Join("out", "trace.json")
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Sampling uint64 `json:"one_op_in"`
		Spans    []span `json:"spans"`
	}{workload, t.every, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
