package rattd

import (
	"bytes"
	"fmt"
	"io"
	"testing"
)

// benchFleetServer restores a synthetic fleet (window + watermark per
// prover) into a local server — checkpoint-path benchmarks don't need
// real crypto traffic, just real per-prover state.
func benchFleetServer(b *testing.B, provers int) (*Server, []string) {
	b.Helper()
	names := make([]string, provers)
	cp := &Checkpoint{
		Lease:    EpochLease{Shard: 0, Epoch: 3, Lo: 1 << 16, Hi: 2 << 16},
		NonceCtr: 1<<16 + 777,
		Erasmus:  make(map[string]DedupWindow, provers),
		Seed:     make(map[string]uint64, provers),
	}
	for i := range names {
		names[i] = fmt.Sprintf("prv%07d", i)
		cp.Erasmus[names[i]] = windowOf(1, 2, 3, 4)
		cp.Seed[names[i]] = 2
	}
	s := localServer(b, Config{})
	s.Restore(cp)
	return s, names
}

// dirtyFleetSample re-marks every len(names)/k-th prover dirty, the
// way a sparse ingest round would — the setup cost of pricing a
// delta encode without re-running crypto.
func dirtyFleetSample(s *Server, names []string, k int) {
	if k <= 0 {
		return
	}
	step := len(names) / k
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(names); i += step {
		st, h := s.stripeHash(names[i])
		st.mu.Lock()
		if rec, ri := st.lookup(names[i], h); rec != nil {
			st.provers.markDirty(rec, ri)
		}
		st.mu.Unlock()
	}
}

const benchFleet = 100_000

// BenchmarkCheckpoint_FullStream prices a full streaming snapshot of
// a 100k-prover fleet to a discarding writer: the stripe-at-a-time
// walk, per-stripe sort, and encode. allocs/op must stay O(stripe)
// flush-buffer churn, not an O(fleet) materialization.
func BenchmarkCheckpoint_FullStream(b *testing.B) {
	s, _ := benchFleetServer(b, benchFleet)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := s.WriteCheckpoint(io.Discard, SnapshotOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(stats.Bytes)
	}
}

// BenchmarkCheckpoint_Delta prices a delta snapshot with ~1% of the
// 100k fleet dirty — the steady-state cost a background checkpointer
// pays per interval. The CI bench gate asserts this is ≥10x faster
// than BenchmarkCheckpoint_FullStream.
func BenchmarkCheckpoint_Delta(b *testing.B) {
	s, names := benchFleetServer(b, benchFleet)
	// Drain enrollment dirtiness so iterations measure a 1% delta.
	if _, err := s.WriteCheckpoint(io.Discard, SnapshotOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dirtyFleetSample(s, names, benchFleet/100)
		b.StartTimer()
		stats, err := s.WriteCheckpoint(io.Discard, SnapshotOptions{Delta: true, ChainID: 1, Seq: uint32(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(stats.Bytes)
	}
}

// BenchmarkCheckpoint_RestoreChain prices restoring a base plus 8
// one-percent deltas — the startup cost a chain restore pays over a
// plain base load.
func BenchmarkCheckpoint_RestoreChain(b *testing.B) {
	s, names := benchFleetServer(b, benchFleet)
	var base bytes.Buffer
	hdrOpts := SnapshotOptions{ChainID: 1}
	if _, err := s.WriteCheckpoint(&base, hdrOpts); err != nil {
		b.Fatal(err)
	}
	var deltas [][]byte
	for seq := uint32(1); seq <= 8; seq++ {
		dirtyFleetSample(s, names, benchFleet/100)
		var buf bytes.Buffer
		if _, err := s.WriteCheckpoint(&buf, SnapshotOptions{Delta: true, ChainID: 1, Seq: seq}); err != nil {
			b.Fatal(err)
		}
		deltas = append(deltas, buf.Bytes())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp, chain, err := DecodeChain(base.Bytes(), deltas...)
		if err != nil {
			b.Fatal(err)
		}
		if chain.Applied != 8 || len(cp.Erasmus) != benchFleet {
			b.Fatalf("chain %+v, %d provers", chain, len(cp.Erasmus))
		}
	}
}
