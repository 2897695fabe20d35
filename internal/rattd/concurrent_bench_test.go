package rattd

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"saferatt/internal/core"
	"saferatt/internal/transport"
	"saferatt/internal/verifier"
)

// BenchmarkServer_VerifySteady prices the steady-state ERASMUS verify
// path — fleet provers reporting the current counter, nonce and
// expected tag already memoised: two stripe visits and one verdict a
// bundle; one nonce-memo probe, one window probe, one tag-cache probe
// and MAC compare, one window commit a report (plus one PRF and one tag
// computation per counter, fleet-wide). The CI gate asserts 0 allocs/op
// here.
func BenchmarkServer_VerifySteady(b *testing.B) { benchVerifySteady(b, 1) }

// BenchmarkServer_VerifySteadyDepth4 is the same path at the history
// depth the benchmark's fleets send (bench/: four reports a bundle), so
// ns/op is per bundle of four. Held to 0 allocs/op beside the 1-deep
// one.
func BenchmarkServer_VerifySteadyDepth4(b *testing.B) { benchVerifySteady(b, 4) }

func benchVerifySteady(b *testing.B, depth int) {
	const fleet = 4096
	s := localServer(b, Config{Stripes: 8})
	image := GoldenImage(7, testMem, testBlock)

	names := make([]string, fleet)
	base := make([]core.Report, fleet) // counter-1 report per prover
	for i := 0; i < fleet; i++ {
		p, err := NewProver(fmt.Sprintf("prv%05d", i), DefaultKey, image, testBlock)
		if err != nil {
			b.Fatal(err)
		}
		names[i] = p.Name
		base[i] = selfMeasure(b, p, 1)
	}
	// The fleet shares one key, so every prover's report for a given
	// counter is byte-identical except replay state: enroll everyone at
	// counter 1, then hand the whole fleet one bundle a round, its
	// counters past anything seen, so every iteration takes the accept
	// path.
	for i := range names {
		s.Ingest(names[i], transport.KindCollection, base[i:i+1])
	}
	p, err := NewProver("tmpl", DefaultKey, image, testBlock)
	if err != nil {
		b.Fatal(err)
	}
	reports := make(map[uint64][]core.Report) // round -> one bundle, depth counters from 2+(round-2)*depth
	for round := uint64(2); round < 2+uint64((b.N+len(names)-1)/len(names))+1; round++ {
		for i := 0; i < depth; i++ { // pre-built outside the timed loop
			reports[round] = append(reports[round], selfMeasure(b, p, 2+(round-2)*uint64(depth)+uint64(i)))
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	round, idx := uint64(2), 0
	for i := 0; i < b.N; i++ {
		s.Ingest(names[idx], transport.KindCollection, reports[round])
		idx++
		if idx == len(names) {
			idx, round = 0, round+1
		}
	}
	b.StopTimer()
	if c := s.Counts(); c.Rejected != 0 {
		b.Fatalf("steady-state bench rejected %d reports", c.Rejected)
	}
}

// BenchmarkServer_RejectUnboundCounter prices the path a sender who
// picks its own counters takes: an enrolled name, a counter nobody ever
// committed, a nonce that is not its PRF — so every bundle misses the
// (full) nonce memo, pays the PRF, fails the binding check and draws a
// verdict. It must cost what it did before the memo existed; the CI
// gate asserts 0 allocs/op here.
func BenchmarkServer_RejectUnboundCounter(b *testing.B) {
	const fleet = 1024
	s := localServer(b, Config{Stripes: 8})
	image := GoldenImage(7, testMem, testBlock)
	tmpl, err := NewProver("tmpl", DefaultKey, image, testBlock)
	if err != nil {
		b.Fatal(err)
	}
	// Enroll the fleet on KeepEpochs distinct counters, which fills the
	// memo to its bound.
	names := make([]string, fleet)
	for i := range names {
		names[i] = fmt.Sprintf("prv%05d", i)
		ctr := uint64(1 + i%s.cfg.KeepEpochs)
		s.Ingest(names[i], transport.KindCollection, []core.Report{selfMeasure(b, tmpl, ctr)})
	}
	before := s.Counts()
	bundle := []core.Report{selfMeasure(b, tmpl, 1)}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bundle[0].Counter = mix64(uint64(i)) | 1<<32 // chosen by the sender, never committed
		s.Ingest(names[i%fleet], transport.KindCollection, bundle)
	}
	b.StopTimer()
	after := s.Counts()
	if after.Accepted != before.Accepted || after.Rejected-before.Rejected != uint64(b.N) || after.Replays != before.Replays {
		b.Fatalf("counts moved %+v -> %+v over %d unbound bundles", before, after, b.N)
	}
	if got := len(s.nonces.Counters()); got != s.cfg.KeepEpochs {
		b.Fatalf("memo holds %d counters after the flood, want it still full at %d", got, s.cfg.KeepEpochs)
	}
}

// BenchmarkServer_ConcurrentIngest measures intra-shard scaling: G
// concurrent ingest goroutines (the shape transport dispatch workers
// produce) over a shared server, striped versus serialized — the
// "serialized" arm funnels the identical workload through one global
// mutex, reproducing the old single-lock daemon. Run with -cpu 1,2,4
// on a multi-core host; the ratio striped/serialized at -cpu 4 is the
// headline number. On a single-core host the two arms converge (no
// parallelism to reclaim) and TestStripesDoNotShareLocks carries the
// structural claim instead.
func BenchmarkServer_ConcurrentIngest(b *testing.B) {
	const fleet = 1024
	image := GoldenImage(7, testMem, testBlock)
	build := func(b *testing.B) (*Server, []string, [][]core.Report) {
		s := localServer(b, Config{Stripes: 0}) // default: 4×GOMAXPROCS
		names := make([]string, fleet)
		warm := make([][]core.Report, fleet)
		for i := 0; i < fleet; i++ {
			p, err := NewProver(fmt.Sprintf("prv%05d", i), DefaultKey, image, testBlock)
			if err != nil {
				b.Fatal(err)
			}
			names[i] = p.Name
			warm[i] = []core.Report{selfMeasure(b, p, 1)}
			s.Ingest(names[i], transport.KindCollection, warm[i])
		}
		// Per-counter template bundles, shared fleet-wide (same key ⇒
		// identical reports); enough counters that the bench never
		// replays.
		bundles := make([][]core.Report, 0, 64)
		p, err := NewProver("tmpl", DefaultKey, image, testBlock)
		if err != nil {
			b.Fatal(err)
		}
		for ctr := uint64(2); ctr < 2+64; ctr++ {
			bundles = append(bundles, []core.Report{selfMeasure(b, p, ctr)})
		}
		return s, names, bundles
	}
	run := func(b *testing.B, lock *sync.Mutex) {
		s, names, bundles := build(b)
		var next atomic.Uint64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				n := next.Add(1) - 1
				name := names[n%fleet]
				bundle := bundles[(n/fleet)%uint64(len(bundles))]
				if lock != nil {
					lock.Lock()
				}
				s.Ingest(name, transport.KindCollection, bundle)
				if lock != nil {
					lock.Unlock()
				}
			}
		})
	}
	b.Run("striped", func(b *testing.B) { run(b, nil) })
	b.Run("serialized", func(b *testing.B) { run(b, new(sync.Mutex)) })
}

// BenchmarkServer_VerifySteadyMultiImage prices the same steady-state
// accept path through a four-class image registry: every bundle
// arrives under its class's wire image id, so each ingest parses the
// id, checks the binding and resolves the named image before the
// batch-cached verify. The CI gate pins this at 0 allocs/op;
// TestServerVerifyMultiImageOverhead bounds what it costs over
// BenchmarkServer_VerifySteady.
func BenchmarkServer_VerifySteadyMultiImage(b *testing.B) {
	const fleet = 4096
	classes := []string{"sensor", "actuator", "gateway", "camera"}
	set := verifier.NewImageSet(verifier.ImageSetConfig{KeepEpochs: 64})
	images := make([][]byte, len(classes))
	for c, name := range classes {
		images[c] = GoldenImage(uint64(7+c), testMem, testBlock)
		if _, err := set.Add(name, verifier.ImageOf(images[c], testBlock)); err != nil {
			b.Fatal(err)
		}
	}
	s, err := Serve(transport.NewLocal(), Config{Images: set, Stripes: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)

	names := make([]string, fleet)
	for i := 0; i < fleet; i++ {
		c := i % len(classes)
		p, err := NewProver(fmt.Sprintf("prv%05d", i), DefaultKey, images[c], testBlock)
		if err != nil {
			b.Fatal(err)
		}
		names[i] = p.Name
		s.IngestImage(p.Name, transport.KindCollection, classes[c],
			[]core.Report{selfMeasure(b, p, 1)})
	}
	// Per-class per-counter template bundles (shared key ⇒ identical
	// same-class reports), pre-built outside the timed loop.
	rounds := uint64((b.N+fleet-1)/fleet) + 2
	bundles := make([][][]core.Report, len(classes)) // class -> counter -> bundle
	for c := range classes {
		p, err := NewProver("tmpl", DefaultKey, images[c], testBlock)
		if err != nil {
			b.Fatal(err)
		}
		for ctr := uint64(2); ctr < 2+rounds; ctr++ {
			bundles[c] = append(bundles[c], []core.Report{selfMeasure(b, p, ctr)})
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	round, idx := 0, 0
	for i := 0; i < b.N; i++ {
		c := idx % len(classes)
		s.IngestImage(names[idx], transport.KindCollection, classes[c], bundles[c][round])
		idx++
		if idx == fleet {
			idx, round = 0, round+1
		}
	}
	b.StopTimer()
	if c := s.Counts(); c.Rejected != 0 {
		b.Fatalf("multi-image steady-state bench rejected %d reports", c.Rejected)
	}
}
