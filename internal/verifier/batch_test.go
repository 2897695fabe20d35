package verifier

import (
	"encoding/binary"
	"math/rand/v2"
	"runtime"
	"testing"

	"saferatt/internal/core"
	"saferatt/internal/costmodel"
	"saferatt/internal/device"
	"saferatt/internal/mem"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
)

// measureOnce runs one real measurement round on a fresh device over m
// and returns its report.
func measureOnce(t *testing.T, m *mem.Memory, opts core.Options, nonce []byte, round int) (*core.Report, []byte) {
	t.Helper()
	k := sim.NewKernel()
	dev := device.New(device.Config{Kernel: k, Mem: m, Profile: costmodel.ODROIDXU4()})
	task := dev.NewTask("mp", 1)
	meas, err := core.NewMeasurement(dev, task, opts, nonce, round)
	if err != nil {
		t.Fatal(err)
	}
	var rep *core.Report
	meas.Start(func(r *core.Report, err error) {
		if err != nil {
			t.Fatal(err)
		}
		rep = r
	})
	k.Run()
	if rep == nil {
		t.Fatal("measurement produced no report")
	}
	return rep, dev.AttestationKey
}

func batchWorld(t *testing.T) (*mem.Golden, core.Options) {
	t.Helper()
	g := mem.RandomGolden(4096, 256, 1, rand.New(rand.NewPCG(8, 8)))
	return g, core.Preset(core.NoLock, suite.SHA256)
}

func TestBatchAmortizesCleanFleet(t *testing.T) {
	g, opts := batchWorld(t)
	b := NewBatch(suite.SHA256, ImageOfGolden(g))
	nonce := []byte("round-nonce")
	var key []byte
	for i := 0; i < 4; i++ {
		m := mem.NewShared(g, mem.SharedConfig{})
		var rep *core.Report
		rep, key = measureOnce(t, m, opts, nonce, 0)
		ok, err := b.Verify(key, rep, false)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("clean device %d rejected", i)
		}
	}
	s := b.Stats()
	if s.Reports != 4 {
		t.Fatalf("Reports = %d, want 4", s.Reports)
	}
	// All four devices share (key, nonce, round, order): one expected
	// tag computation for the whole fleet.
	if s.Computed != 1 {
		t.Fatalf("Computed = %d, want 1", s.Computed)
	}
}

func TestBatchDetectsInfectedDevice(t *testing.T) {
	g, opts := batchWorld(t)
	b := NewBatch(suite.SHA256, ImageOfGolden(g))
	nonce := []byte("round-nonce")

	clean := mem.NewShared(g, mem.SharedConfig{})
	repClean, key := measureOnce(t, clean, opts, nonce, 0)

	infected := mem.NewShared(g, mem.SharedConfig{})
	if err := infected.Poke(3*256+7, 0x66); err != nil {
		t.Fatal(err)
	}
	repBad, _ := measureOnce(t, infected, opts, nonce, 0)

	if ok, err := b.Verify(key, repClean, false); err != nil || !ok {
		t.Fatalf("clean rejected: ok=%v err=%v", ok, err)
	}
	if ok, err := b.Verify(key, repBad, false); err != nil || ok {
		t.Fatalf("infected accepted: ok=%v err=%v", ok, err)
	}
	// The infected report costs only a tag comparison — same group.
	if s := b.Stats(); s.Computed != 1 || s.Reports != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestBatchMatchesVerifier pins that batched verification decides
// exactly like the per-report CheckTag path, on both data paths.
func TestBatchMatchesVerifier(t *testing.T) {
	g, base := batchWorld(t)
	for _, path := range []core.PathMode{core.PathIncremental, core.PathStreaming} {
		opts := base
		opts.Path = path
		b := NewBatch(suite.SHA256, ImageOfGolden(g))
		nonce := []byte("pin-nonce")

		mems := []*mem.Memory{mem.NewShared(g, mem.SharedConfig{}), mem.NewShared(g, mem.SharedConfig{})}
		if err := mems[1].Poke(2*256+9, 0xAA); err != nil {
			t.Fatal(err)
		}
		for i, m := range mems {
			rep, key := measureOnce(t, m, opts, nonce, 0)
			single := &Verifier{Scheme: suite.Scheme{Hash: suite.SHA256, Key: key},
				PermKey: key, Image: ImageOfGolden(g), Opts: opts}
			wantOK, err := single.CheckTag(rep)
			if err != nil {
				t.Fatal(err)
			}
			gotOK, err := b.Verify(key, rep, false)
			if err != nil {
				t.Fatal(err)
			}
			if gotOK != wantOK {
				t.Fatalf("path %v device %d: batch=%v, per-report=%v", path, i, gotOK, wantOK)
			}
			if wantOK != (i == 0) {
				t.Fatalf("path %v device %d: unexpected baseline verdict %v", path, i, wantOK)
			}
		}
	}
}

func TestBatchNonceEpochEviction(t *testing.T) {
	g, opts := batchWorld(t)
	b := NewBatch(suite.SHA256, ImageOfGolden(g))
	m := mem.NewShared(g, mem.SharedConfig{})
	rep1, key := measureOnce(t, m, opts, []byte("epoch-1"), 0)
	rep2, _ := measureOnce(t, m, opts, []byte("epoch-2"), 0)
	rep3, _ := measureOnce(t, m, opts, []byte("epoch-1"), 0)
	for i, rep := range []*core.Report{rep1, rep2, rep3} {
		if ok, err := b.Verify(key, rep, false); err != nil || !ok {
			t.Fatalf("report %d: ok=%v err=%v", i, ok, err)
		}
	}
	// Each nonce change clears the cache, so every report recomputed.
	if s := b.Stats(); s.Computed != 3 {
		t.Fatalf("Computed = %d, want 3 (epoch eviction)", s.Computed)
	}
}

func TestBatchRejectsUnbatchable(t *testing.T) {
	g, opts := batchWorld(t)
	b := NewBatch(suite.SHA256, ImageOfGolden(g))
	m := mem.NewShared(g, mem.SharedConfig{})
	rep, key := measureOnce(t, m, opts, []byte("n"), 0)

	bad := *rep
	bad.RegionCount = 4
	if _, err := b.Verify(key, &bad, false); err == nil {
		t.Fatal("region report accepted by batch")
	}
	bad = *rep
	bad.BlockSize = 128
	bad.NumBlocks = 32
	if _, err := b.Verify(key, &bad, false); err == nil {
		t.Fatal("geometry mismatch accepted by batch")
	}
}

// TestBatchKeepEpochs pins the multi-epoch cache: a stream that
// interleaves nonce epochs — a daemon ingesting ERASMUS collections,
// each self-measurement carrying its own counter-derived nonce —
// thrashes the single-epoch cache but amortizes fully with KeepEpochs.
func TestBatchKeepEpochs(t *testing.T) {
	g, opts := batchWorld(t)
	nonces := [][]byte{[]byte("epoch-a"), []byte("epoch-b")}
	var reps []*core.Report
	var key []byte
	for _, nonce := range nonces {
		m := mem.NewShared(g, mem.SharedConfig{})
		var rep *core.Report
		rep, key = measureOnce(t, m, opts, nonce, 0)
		reps = append(reps, rep)
	}
	verifyInterleaved := func(b *Batch) BatchStats {
		for i := 0; i < 4; i++ {
			for _, rep := range reps {
				ok, err := b.Verify(key, rep, false)
				if err != nil || !ok {
					t.Fatalf("clean report rejected: ok=%v err=%v", ok, err)
				}
			}
		}
		return b.Stats()
	}

	single := verifyInterleaved(NewBatch(suite.SHA256, ImageOfGolden(g)))
	if single.Computed != 8 {
		t.Fatalf("single-epoch cache computed %d tags, want 8 (thrash)", single.Computed)
	}
	multi := NewBatch(suite.SHA256, ImageOfGolden(g))
	multi.KeepEpochs = 2
	ms := verifyInterleaved(multi)
	if ms.Computed != 2 {
		t.Fatalf("KeepEpochs=2 computed %d tags, want 2", ms.Computed)
	}
	if ms.Reports != 8 {
		t.Fatalf("reports %d, want 8", ms.Reports)
	}

	// Eviction stays bounded: with KeepEpochs=1 semantics forced via the
	// LRU (capacity 1 < number of live epochs), recomputation returns.
	lru := NewBatch(suite.SHA256, ImageOfGolden(g))
	lru.KeepEpochs = 2
	third := func() *core.Report {
		m := mem.NewShared(g, mem.SharedConfig{})
		rep, _ := measureOnce(t, m, opts, []byte("epoch-c"), 0)
		return rep
	}()
	for _, rep := range []*core.Report{reps[0], reps[1], third, reps[0]} {
		if ok, err := lru.Verify(key, rep, false); err != nil || !ok {
			t.Fatalf("clean report rejected: ok=%v err=%v", ok, err)
		}
	}
	// a, b, c computed; c evicted a; the final a is recomputed -> 4.
	if s := lru.Stats(); s.Computed != 4 {
		t.Fatalf("eviction path computed %d tags, want 4", s.Computed)
	}
}

// TestBatchVerifyOnce pins the one-shot path: the same verdicts as
// Verify (clean, tampered, unbatchable), counted as a computation every
// time, and neither read from nor written to the cache — so a shared
// epoch warmed before any number of one-shot verifications is still a
// hit after them.
func TestBatchVerifyOnce(t *testing.T) {
	g, opts := batchWorld(t)
	b := NewBatch(suite.SHA256, ImageOfGolden(g)) // KeepEpochs 0: one slot
	m := mem.NewShared(g, mem.SharedConfig{})
	shared, key := measureOnce(t, m, opts, []byte("fleet-epoch"), 0)
	if ok, err := b.Verify(key, shared, false); err != nil || !ok {
		t.Fatalf("shared report: ok=%v err=%v", ok, err)
	}

	const oneShots = 5
	for i := 0; i < oneShots; i++ {
		rep, _ := measureOnce(t, m, opts, []byte{'o', 'n', 'c', 'e', byte(i)}, 0)
		if ok, err := b.VerifyOnce(key, rep, false); err != nil || !ok {
			t.Fatalf("one-shot %d: ok=%v err=%v", i, ok, err)
		}
		rep.Tag[0] ^= 1
		if ok, err := b.VerifyOnce(key, rep, false); err != nil || ok {
			t.Fatalf("tampered one-shot %d: ok=%v err=%v", i, ok, err)
		}
	}
	// The warm shared report verifies without a cache probe too.
	if ok, err := b.VerifyOnce(key, shared, false); err != nil || !ok {
		t.Fatalf("shared report through VerifyOnce: ok=%v err=%v", ok, err)
	}
	bad := *shared
	bad.RegionCount = 4
	if _, err := b.VerifyOnce(key, &bad, false); err == nil {
		t.Fatal("region report accepted by VerifyOnce")
	}
	if s := b.Stats(); s.Reports != 2*oneShots+2 || s.Computed != 2*oneShots+2 {
		t.Fatalf("stats %+v, want every one-shot verification counted and computed", s)
	}

	if ok, err := b.Verify(key, shared, false); err != nil || !ok {
		t.Fatalf("shared report after one-shots: ok=%v err=%v", ok, err)
	}
	if s := b.Stats(); s.Computed != 2*oneShots+2 {
		t.Fatalf("one-shot verifications evicted the shared epoch: computed %d, want %d", s.Computed, 2*oneShots+2)
	}
}

// TestBatchPublishIsConstant pins what an insert costs: with the table
// full — so every insert also evicts — the bytes allocated per
// Batch.publish and per NonceMemo.Admit at a bound of 1,024 epochs are
// within 2x of those at a bound of 4. (Both used to clone their table
// on every insert, a thousand-odd map entries at the larger bound.)
func TestBatchPublishIsConstant(t *testing.T) {
	const inserts = 4096
	perInsert := func(keep int, insert func(i int)) float64 {
		for i := 0; i < 2*keep; i++ {
			insert(i) // fill to the bound, and past it
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 2 * keep; i < 2*keep+inserts; i++ {
			insert(i)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / inserts
	}
	g, _ := batchWorld(t)
	publish := func(keep int) float64 {
		b := NewBatch(suite.SHA256, ImageOfGolden(g))
		b.KeepEpochs = keep
		k := groupKey{key: "k"}
		tag := make([]byte, 32)
		var nonce [8]byte
		n := perInsert(keep, func(i int) {
			binary.LittleEndian.PutUint64(nonce[:], uint64(i))
			b.publish(nonce[:], k, tag)
		})
		if got := b.cache.Load().n; got != keep {
			t.Fatalf("KeepEpochs %d: table holds %d epochs", keep, got)
		}
		return n
	}
	admit := func(keep int) float64 {
		m := NewNonceMemo([]byte("key"), keep)
		n := perInsert(keep, func(i int) { m.Admit(uint64(i)) })
		if got := len(m.Counters()); got != keep {
			t.Fatalf("keep %d: memo holds %d counters", keep, got)
		}
		return n
	}
	for name, f := range map[string]func(int) float64{"Batch.publish": publish, "NonceMemo.Admit": admit} {
		small, large := f(4), f(1024)
		t.Logf("%s: %.0f B/insert at a bound of 4, %.0f at 1024", name, small, large)
		if large > 2*small || small > 2*large {
			t.Errorf("%s allocates %.0f B/insert at a bound of 1024 against %.0f at 4: not constant", name, large, small)
		}
	}
}
