package rattd

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"saferatt/internal/core"
	"saferatt/internal/transport"
)

// settledHeap returns live heap bytes after a full GC.
func settledHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestServerBytesPerProver pins the settled heap an enrolled prover costs
// a server: 200 000 provers send one 4-deep collection each, so every one
// holds a record, an index slot and a place in the (full) dirty set. The
// record is 72 bytes in a chunk that never moves, the slot 8 bytes of an
// index kept under ¾ load, the dirty entry a 4-byte record ID: at most
// 107 B a prover. The heap record, string-keyed map slot and dirty name
// this replaced cost 133.9 B.
func TestServerBytesPerProver(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is meaningless under the race detector")
	}
	const provers = 200_000
	s := localServer(t, Config{Stripes: 8})
	tmpl, err := NewProver("tmpl", DefaultKey, GoldenImage(7, testMem, testBlock), testBlock)
	if err != nil {
		t.Fatal(err)
	}
	bundle := make([]core.Report, 4) // one key fleet-wide: every prover's history is this one
	for i := range bundle {
		bundle[i] = selfMeasure(t, tmpl, uint64(i+1))
	}
	names := make([]string, provers)
	for i := range names {
		names[i] = fmt.Sprintf("prv%07d", i)
	}
	// Scratch pools, the nonce memo and the tag cache exist before the
	// baseline is read.
	s.Ingest("warm", transport.KindCollection, bundle)

	before := settledHeap()
	for _, name := range names {
		s.Ingest(name, transport.KindCollection, bundle)
	}
	perProver := float64(int64(settledHeap()-before)) / provers
	runtime.KeepAlive(names)
	t.Logf("%.1f heap bytes per enrolled prover", perProver)
	if c := s.Counts(); c.Accepted != 4*(provers+1) || s.DirtyCount() != provers+1 {
		t.Fatalf("counts %+v, %d dirty: want every report accepted and every prover dirty", c, s.DirtyCount())
	}
	if perProver > 107 {
		t.Fatalf("%.1f heap bytes per enrolled prover, want <= 107", perProver)
	}
}

// TestWriteCheckpointIgnoresEnrolmentOrder pins the canonical encoding
// byte for byte: two servers with equal stripes reach the same provers,
// windows, watermarks and image bindings through opposite orders, and
// write equal bytes — the full snapshot and the delta after it. A
// stripe's records sit in the order its provers enrolled, so this is the
// per-stripe sort's to hold. Each chain also decodes to its own server's
// Checkpoint().
func TestWriteCheckpointIgnoresEnrolmentOrder(t *testing.T) {
	const fleet = 64
	a, sensor, gateway := multiImageServer(t, 1)
	b, _, _ := multiImageServer(t, 1)
	prvs := make([]*Prover, fleet)
	for i := range prvs {
		g, class := sensor, "sensor"
		if i%2 == 1 {
			g, class = gateway, "gateway" // "sensor" is the default: only these bind
		}
		prvs[i] = imageProver(t, fmt.Sprintf("prv%03d", i), g, class)
	}
	// feed sends each listed prover a collection of counters [from, to],
	// and every third one a SeED report at counter to.
	feed := func(s *Server, order []int, from, to uint64) {
		for _, i := range order {
			p := prvs[i]
			collect(t, s, p, p.ImageName, from, to)
			if i%3 == 0 {
				r, err := p.SeedReport(to)
				if err != nil {
					t.Fatal(err)
				}
				s.IngestImage(p.Name, transport.KindSeedReport, p.ImageName, []core.Report{*r})
			}
		}
	}
	write := func(s *Server, o SnapshotOptions) []byte {
		var buf bytes.Buffer
		if _, err := s.WriteCheckpoint(&buf, o); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	order := make([]int, fleet)
	for i := range order {
		order[i] = i
	}
	feed(a, order, 1, 2)
	slices.Reverse(order)
	feed(b, order, 1, 2)
	baseA, baseB := write(a, SnapshotOptions{ChainID: 1}), write(b, SnapshotOptions{ChainID: 1})
	if !bytes.Equal(baseA, baseB) {
		t.Fatalf("full snapshots differ with enrolment order (%d and %d bytes)", len(baseA), len(baseB))
	}
	want := a.Checkpoint()
	want.ChainID = 1
	if got, err := DecodeCheckpoint(baseA); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("full snapshot decodes to %+v, %v; server holds %+v", got, err, want)
	}

	// A second round dirties every third prover, again in opposite orders.
	var some []int
	for i := 0; i < fleet; i += 3 {
		some = append(some, i)
	}
	feed(a, some, 3, 4)
	slices.Reverse(some)
	feed(b, some, 3, 4)
	delta := SnapshotOptions{Delta: true, ChainID: 1, Seq: 1}
	deltaA, deltaB := write(a, delta), write(b, delta)
	if !bytes.Equal(deltaA, deltaB) {
		t.Fatalf("deltas differ with enrolment order (%d and %d bytes)", len(deltaA), len(deltaB))
	}
	for _, c := range []struct {
		s           *Server
		base, delta []byte
	}{{a, baseA, deltaA}, {b, baseB, deltaB}} {
		got, st, err := DecodeChain(c.base, c.delta)
		if err != nil || st.Applied != 1 {
			t.Fatalf("chain: %+v, %v", st, err)
		}
		want := c.s.Checkpoint()
		want.ChainID, want.Seq = 1, 1
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chain decodes to %+v; server holds %+v", got, want)
		}
	}
	if c := a.Counts(); c.Rejected != 0 || a.Enrolled() != fleet {
		t.Fatalf("counts %+v, %d enrolled: want nothing rejected, all %d enrolled", c, a.Enrolled(), fleet)
	}
}

// BenchmarkServer_VerifyColdFleet is the steady 4-deep accept path over a
// fleet whose records the caches cannot hold: 200 000 provers (20 000
// under -short), one bundle each a round in fleet order, every verdict
// delivered to a handler bound on the in-process transport — the shape
// of the benchmark's inproc_mixed fleet. BenchmarkServer_VerifySteady's
// 4 096 provers stay cache-resident, so this is what prices the cold
// record probe. ns/op is per bundle of four.
func BenchmarkServer_VerifyColdFleet(b *testing.B) {
	fleet := 200_000
	if testing.Short() {
		fleet = 20_000
	}
	const depth = 4
	image := GoldenImage(7, testMem, testBlock)
	tr := transport.NewLocal()
	s, err := Serve(tr, Config{Ref: image, BlockSize: testBlock, Stripes: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	verdicts := 0
	onVerdict := func(transport.Msg) { verdicts++ }
	names := make([]string, fleet)
	for i := range names {
		names[i] = fmt.Sprintf("prv%07d", i)
		if err := tr.Bind(names[i], onVerdict); err != nil {
			b.Fatal(err)
		}
	}
	tmpl, err := NewProver("tmpl", DefaultKey, image, testBlock)
	if err != nil {
		b.Fatal(err)
	}
	// The fleet shares one key, so round r's bundle — counters
	// r·depth+1 … (r+1)·depth — is every prover's.
	bundle := func(r int) []core.Report {
		out := make([]core.Report, depth)
		for i := range out {
			out[i] = selfMeasure(b, tmpl, uint64(r*depth+i+1))
		}
		return out
	}
	enrol := bundle(0)
	for _, name := range names {
		s.Ingest(name, transport.KindCollection, enrol)
	}
	rounds := make([][]core.Report, (b.N+fleet-1)/fleet)
	for r := range rounds {
		rounds[r] = bundle(r + 1)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Ingest(names[i%fleet], transport.KindCollection, rounds[i/fleet])
	}
	b.StopTimer()
	if c := s.Counts(); c.Rejected != 0 || verdicts != fleet+b.N {
		b.Fatalf("counts %+v, %d verdicts for %d bundles", c, verdicts, fleet+b.N)
	}
}
