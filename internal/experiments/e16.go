package experiments

import (
	"cmp"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"saferatt/internal/core"
	"saferatt/internal/rattd"
	"saferatt/internal/verifier"
)

// E16 certifies zero-stall incremental checkpointing at fleet scale:
// a single shard serving a large fleet keeps ingesting while a
// background checkpointer persists its state to a real on-disk
// base+delta chain. Where E15 measured what one checkpoint costs,
// E16 measures what checkpointing costs the *service*: ingest
// throughput with the checkpointer running and with a slow snapshot in
// flight, against a no-checkpoint baseline (the zero-stall claim); a
// full streaming snapshot's time and allocation (O(stripe), not
// O(fleet)); a 1%-dirty delta's speedup over it (the O(dirty) claim,
// gated ≥10x); and the chain's reload into a fresh server that still
// rejects pre-crash replays.
type E16Config struct {
	// Provers is the fleet size; default 1_000_000.
	Provers int
	// CheckpointEvery is the background checkpoint interval during the
	// concurrent round; default 250ms.
	CheckpointEvery time.Duration
	// Workers is the ingest concurrency; default GOMAXPROCS.
	Workers int
	// MinDeltaSpeedup fails the run if the 1%-dirty delta encode is
	// not at least this many times faster than the full encode;
	// default 10, <0 disables.
	MinDeltaSpeedup float64
	// Logf, if set, receives phase progress.
	Logf func(format string, args ...any)
}

// E16Result is the run's outcome.
type E16Result struct {
	Provers, Workers, Stripes int
	// Phases the script holds, and how many the runner checked.
	Phases, PhasesChecked int

	// Baseline round: ingest with no checkpointer.
	BaseVerPerSec float64
	// Concurrent round: same traffic with the checkpointer ticking
	// every CheckpointEvery; Checkpoints counts files written during
	// the round (fulls + deltas), ConcurrentRatio is ckpt/base —
	// recorded, not gated: on one core the two share a CPU.
	CkptVerPerSec, ConcurrentRatio float64
	Checkpoints                    uint64

	// Zero-stall round: ingest while a full snapshot streams to a
	// disk-speed (deliberately slow, off-lock) writer. StallRatio is
	// slow/base throughput; EncodeOverlapped reports whether the
	// snapshot was still in flight when the round finished (the
	// ratio only means something when true).
	SlowVerPerSec, StallRatio float64
	EncodeOverlapped          bool

	// Full streaming snapshot, pool warm: wall time, encoded bytes,
	// and bytes allocated during the encode.
	FullNS, FullBytes int64
	FullAllocBytes    uint64

	// Delta snapshot with DirtyProvers (1% of the fleet) dirty;
	// DeltaSpeedup = FullNS / DeltaNS.
	DirtyProvers, DeltaNS, DeltaBytes int64
	DeltaSpeedup                      float64

	// Chain restore from disk: files replayed and wall time.
	ChainDeltas int
	RestoreNS   int64
}

// E16ZeroStallCheckpoint runs the experiment: the seven-phase script at
// the end, with the checkpointer, the slow writer, the full and delta
// encodes and the chain restore in the hooks between its phases.
func E16ZeroStallCheckpoint(cfg E16Config) (*E16Result, error) {
	provers, workers := cmp.Or(cfg.Provers, 1_000_000), cmp.Or(cfg.Workers, runtime.GOMAXPROCS(0))
	dir, err := os.MkdirTemp("", "e16-ckpt")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "cp.0")
	image := fleetImage(0)
	rig, err := newFleetRig(provers, workers, rattd.Config{Ref: image}, cfg.Logf)
	if err != nil {
		return nil, err
	}
	srv := rig.srv
	defer srv.Close()
	restored, err := serveFleet(rattd.Config{Ref: image}) // the fresh server the chain reloads into
	if err != nil {
		return nil, err
	}
	defer restored.Close()
	res := &E16Result{Provers: provers, Workers: workers, Stripes: srv.Stripes()}

	// The checkpointer runs against the on-disk chain — base first (the
	// whole enrolled fleet), then interval-driven deltas/compactions
	// during ingest. Then the chain reloads into the fresh server; the
	// two phases that follow spot-check that freshness survived.
	ck := rattd.NewCheckpointer(srv, rattd.CheckpointerConfig{
		Path: path, Interval: cmp.Or(cfg.CheckpointEvery, 250*time.Millisecond), Logf: rig.logf,
	})
	startCheckpointer := func() error {
		if err := ck.Tick(); err != nil {
			return fmt.Errorf("base checkpoint: %v", err)
		}
		ck.Start()
		return nil
	}
	stopAndRestore := func(st phaseStat) error {
		if err := ck.Close(); err != nil {
			return fmt.Errorf("final checkpoint: %v", err)
		}
		res.CkptVerPerSec, res.ConcurrentRatio = st.perSec(), st.perSec()/res.BaseVerPerSec
		res.Checkpoints = ck.Stats().Fulls + ck.Stats().Deltas
		start := time.Now()
		cp, chain, err := rattd.LoadChain(path)
		if err != nil {
			return fmt.Errorf("chain restore: %v", err)
		}
		restored.Restore(cp)
		res.RestoreNS, res.ChainDeltas = time.Since(start).Nanoseconds(), chain.Applied
		if got := restored.Enrolled(); got != provers {
			return fmt.Errorf("restored %d provers, want %d", got, provers)
		}
		return nil
	}

	// Zero-stall round: a full snapshot streams to a writer that sleeps
	// 10ms per flush (~6 MB/s — a slow disk) on a background goroutine
	// while the fleet ingests a full round. The sleeps are off-lock, so
	// the checkpoint holds each stripe only for its copy window; a walk
	// that held the fleet locked for the write's duration would make
	// this round take as long as the encode. Unlike the concurrent
	// round's, the ratio isolates lock stalls from CPU sharing.
	encDone := make(chan error, 1)
	startSlowSnapshot := func() error {
		go func() {
			_, err := srv.WriteCheckpoint(slowWriter{10 * time.Millisecond}, rattd.SnapshotOptions{ChainID: 98})
			encDone <- err
		}()
		return nil
	}
	awaitSlowSnapshot := func(st phaseStat) error {
		res.EncodeOverlapped = len(encDone) == 0 // still encoding as the round ended
		res.SlowVerPerSec, res.StallRatio = st.perSec(), st.perSec()/res.BaseVerPerSec
		return <-encDone
	}

	// Full streaming encode, pool warm: a throwaway encode first drains
	// the dirt the round before left and repopulates the scratch pool
	// (GC may have emptied it during the slow round's sleeps). The
	// allocation figure is the least of several encodes: a pooled buffer
	// lost between two of them (its goroutine moved to another P, or a
	// GC cycle ran) is allocated again in full, which says nothing about
	// whether the encode streams.
	measureFull := func() error {
		_, _, err := timeCheckpoint(srv, rattd.SnapshotOptions{ChainID: 99})
		for i := 0; i < 5 && err == nil; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var ns, size int64
			ns, size, err = timeCheckpoint(srv, rattd.SnapshotOptions{ChainID: 99})
			runtime.ReadMemStats(&after)
			alloc := after.TotalAlloc - before.TotalAlloc
			if i == 0 {
				res.FullNS, res.FullBytes, res.FullAllocBytes = ns, size, alloc
			}
			res.FullAllocBytes = min(res.FullAllocBytes, alloc)
		}
		return err
	}
	measureDelta := func(phaseStat) (err error) {
		res.DirtyProvers = srv.DirtyCount()
		res.DeltaNS, res.DeltaBytes, err = timeCheckpoint(srv, rattd.SnapshotOptions{Delta: true, ChainID: 99, Seq: 1})
		res.DeltaSpeedup = float64(res.FullNS) / float64(res.DeltaNS)
		return err
	}

	// One report a round: counter c is round c.
	round := func(c uint64) func(int) ([]core.Report, error) { return rig.bundle(image, c, c) }
	probe := func(i int) bool { return i == provers/2 }
	script := []phase{
		{name: "enrol", bundle: round(1), enrols: true},
		{name: "baseline", bundle: round(2), after: func(st phaseStat) error { res.BaseVerPerSec = st.perSec(); return nil }},
		{name: "checkpointer running", bundle: round(3), before: startCheckpointer, after: stopAndRestore},
		{name: "restored: pre-crash replay", srv: restored, who: probe, bundle: round(3), want: verifier.ReasonReplay},
		{name: "restored: fresh counter", srv: restored, who: probe, bundle: round(4)},
		{name: "slow snapshot in flight", bundle: round(4), before: startSlowSnapshot, after: awaitSlowSnapshot},
		{name: "1% dirty", who: every(100), bundle: round(5), before: measureFull, after: measureDelta},
	}
	err = rig.play(script)
	res.Phases, res.PhasesChecked = len(script), rig.checked
	if err != nil {
		return res, err
	}

	if need := cmp.Or(cfg.MinDeltaSpeedup, 10); res.DeltaSpeedup < need {
		return res, fmt.Errorf("delta speedup %.1fx below required %.1fx", res.DeltaSpeedup, need)
	}
	// The zero-stall gate: 0.8 with two or more CPUs; 0.5 on a single
	// CPU, where the encoder's sort/encode work has no second core to run
	// on and time-shares with ingest — a lock-holding writer would score
	// ~0.1 there, so 0.5 still separates the two designs decisively.
	// Below 100k provers the encode is too brief to overlap a round.
	need := 0.8
	if runtime.GOMAXPROCS(0) < 2 {
		need = 0.5
	}
	if provers >= 100_000 && res.EncodeOverlapped && res.StallRatio < need {
		return res, fmt.Errorf("ingest during in-flight snapshot ran at %.2fx of baseline, below required %.2f", res.StallRatio, need)
	}
	return res, nil
}

// slowWriter models a slow disk: every flush handed to it sleeps
// before "completing". The sleep happens in the encoder's write path
// — never under a stripe lock — which is exactly what makes it
// useful for isolating lock stalls.
type slowWriter struct{ delay time.Duration }

func (w slowWriter) Write(p []byte) (int, error) {
	time.Sleep(w.delay)
	return len(p), nil
}

func (r *E16Result) fields() []field {
	// The zero-stall line is printed only when the snapshot overlapped
	// the round; the ratio means nothing otherwise.
	slow, stall := "zero-stall: ingest under an in-flight slow-disk snapshot ran at %.0f ver/s", " (%.2fx of baseline — stripe locks never held across writes)\n"
	if !r.EncodeOverlapped {
		slow, stall = "", ""
	}
	return []field{
		{"", "", "E16: zero-stall incremental checkpointing under fleet ingest\n", nil, nil},
		{"provers", "%d", "provers %d", r.Provers, nil},
		{"workers", "%d", "  workers %d", r.Workers, nil},
		{"stripes", "%d", "  stripes %d\n", r.Stripes, nil},
		{"base_ver_per_sec", "%.1f", "ingest: baseline %.0f ver/s", r.BaseVerPerSec, nil},
		{"ckpt_ver_per_sec", "%.1f", ", with continuous checkpointing %.0f ver/s", r.CkptVerPerSec, nil},
		{"concurrent_ratio", "%.3f", " (ratio %.2f", r.ConcurrentRatio, nil},
		{"", "", ", %d files written)\n", r.Checkpoints, nil},
		{"slow_ver_per_sec", "%.1f", slow, r.SlowVerPerSec, nil},
		{"stall_ratio", "%.3f", stall, r.StallRatio, nil},
		{"encode_overlapped", "%t", "", r.EncodeOverlapped, nil},
		{"checkpoints", "%d", "", r.Checkpoints, nil},
		{"full_ns", "%d", "", r.FullNS, nil},
		{"full_bytes", "%d", "full streaming encode: %d bytes", r.FullBytes, nil},
		{"", "", " in %.3fs", secs(r.FullNS), nil},
		{"full_alloc_bytes", "%d", " (%.1f KiB allocated — pooled scratch, not O(fleet))\n", r.FullAllocBytes, float64(r.FullAllocBytes) / 1024},
		{"dirty_provers", "%d", "delta encode: %d dirty provers", r.DirtyProvers, nil},
		{"delta_ns", "%d", "", r.DeltaNS, nil},
		{"delta_bytes", "%d", ", %d bytes", r.DeltaBytes, nil},
		{"", "", " in %.4fs", secs(r.DeltaNS), nil},
		{"delta_speedup", "%.1f", " — %.0fx faster than full\n", r.DeltaSpeedup, nil},
		{"chain_deltas", "%d", "chain restore: base + %d deltas", r.ChainDeltas, nil},
		{"restore_ns", "%d", " in %.2fs, pre-crash replay rejected exactly once\n", r.RestoreNS, secs(r.RestoreNS)},
	}
}

// RenderE16 formats the run as text.
func RenderE16(r *E16Result) string { return renderFields(r.fields()) }

// E16CSV writes the run machine-readably.
func E16CSV(w io.Writer, r *E16Result) error { return fieldsCSV(w, r.fields()) }
