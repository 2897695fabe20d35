package experiments

import (
	"cmp"
	"io"
	"runtime"

	"saferatt/internal/rattd"
	"saferatt/internal/transport"
	"saferatt/internal/verifier"
)

// E15 is the million-prover scale run: one rattd shard, driven
// in-process over transport.Local by concurrent ingest workers — the
// intra-shard concurrency experiment. Its traffic is the four-phase
// script in E15MillionProvers, and the fleet script's runner holds
// every phase to its declaration: zero verification failures at fleet
// scale, conservation, each replay rejected exactly once, full
// enrolment. What E15 alone measures (bench/baseline.json; now
// ops_per_s on inproc_mixed and rattd.state_bytes_per_prover) is
// bounded memory — per-prover server bytes after round one and the
// marginal bytes after a second full round, ≈0 because the bounded
// dedup window makes state O(provers), not O(reports) — and aggregate
// verifications/sec with all cores ingesting one shard.
type E15Config struct {
	// Provers is the fleet size; default 1_000_000.
	Provers int
	// SeedEvery sends a SeED report for every n-th prover (per-prover
	// nonces make SeED the expensive, unamortizable path); default 16.
	SeedEvery int
	// ReplayEvery replays the round-one bundle of every n-th prover
	// after the rounds; default 1000.
	ReplayEvery int
	// Workers is the ingest concurrency; default GOMAXPROCS.
	Workers int
	// Logf, if set, receives phase progress.
	Logf func(format string, args ...any)
}

// E15Result is the scale run's outcome.
type E15Result struct {
	Provers, Workers, Stripes, History, Enrolled int
	// Phases the script holds, and how many the runner checked.
	Phases, PhasesChecked int

	// Reports ingested / accepted / rejected / replays, server-side.
	Sent, Accepted, Rejected, Replays uint64
	// SeedSent counts SeED reports within Sent; ReplaySent the
	// deliberately replayed reports within Sent.
	SeedSent, ReplaySent uint64

	// WallNS is the workers' time over the two collection rounds plus
	// the SeED phase; VerPerSec is accepted verifications over it.
	WallNS    int64
	VerPerSec float64

	// HeapBaseBytes is live heap before the server sees traffic (fleet
	// name table included); HeapRound1Bytes / HeapRound2Bytes after
	// each full round (GC-settled). BytesPerProver is
	// (round1-base)/provers; Round2BytesPerProver the marginal
	// (round2-round1)/provers — ≈0 when dedup state is bounded.
	HeapBaseBytes, HeapRound1Bytes, HeapRound2Bytes uint64
	BytesPerProver, Round2BytesPerProver            float64

	// CheckpointBytes is the encoded checkpoint size (fixed window
	// per prover); CheckpointNS the snapshot+encode wall time.
	CheckpointBytes int
	CheckpointNS    int64
}

// E15MillionProvers runs the scale experiment.
func E15MillionProvers(cfg E15Config) (*E15Result, error) {
	provers, workers := cmp.Or(cfg.Provers, 1_000_000), cmp.Or(cfg.Workers, runtime.GOMAXPROCS(0))
	image := fleetImage(0)
	rig, err := newFleetRig(provers, workers, rattd.Config{Ref: image}, cfg.Logf)
	if err != nil {
		return nil, err
	}
	defer rig.srv.Close()
	res := &E15Result{Provers: provers, Workers: workers, Stripes: rig.srv.Stripes(), History: fleetHistory}
	round1, round2 := rig.bundle(image, 1, fleetHistory), rig.bundle(image, fleetHistory+1, 2*fleetHistory)
	res.HeapBaseBytes = settledHeap()

	// round closes a full collection round: it joins the throughput
	// window and is followed by a settled-heap reading.
	round := func(heap *uint64) func(phaseStat) error {
		return func(st phaseStat) error {
			res.WallNS += st.wall.Nanoseconds()
			*heap = settledHeap()
			return nil
		}
	}
	script := []phase{
		{name: "round 1", bundle: round1, enrols: true, after: round(&res.HeapRound1Bytes)},
		{name: "round 2", bundle: round2, after: round(&res.HeapRound2Bytes)},
		{name: "seed", who: every(cmp.Or(cfg.SeedEvery, 16)), kind: transport.KindSeedReport, bundle: rig.seedBundle(image, 1),
			after: func(st phaseStat) error {
				res.SeedSent, res.WallNS = uint64(st.reports), res.WallNS+st.wall.Nanoseconds()
				res.VerPerSec = float64(rig.srv.Counts().Accepted) / secs(res.WallNS)
				return nil
			}},
		{name: "replay sample", who: every(cmp.Or(cfg.ReplayEvery, 1000)), bundle: round1, want: verifier.ReasonReplay,
			after: func(st phaseStat) error { res.ReplaySent = uint64(st.reports); return nil }},
	}
	err = rig.play(script)
	res.Phases, res.PhasesChecked = len(script), rig.checked
	if err != nil {
		return res, err
	}
	counts := rig.srv.Counts()
	res.Sent, res.Accepted, res.Rejected, res.Replays = rig.sent, counts.Accepted, counts.Rejected, counts.Replays
	res.Enrolled = rig.srv.Enrolled()
	res.BytesPerProver = float64(int64(res.HeapRound1Bytes)-int64(res.HeapBaseBytes)) / float64(provers)
	res.Round2BytesPerProver = float64(int64(res.HeapRound2Bytes)-int64(res.HeapRound1Bytes)) / float64(provers)
	ns, size, err := timeCheckpoint(rig.srv, rattd.SnapshotOptions{})
	res.CheckpointNS, res.CheckpointBytes = ns, int(size)
	return res, err
}

// settledHeap returns live heap bytes after a full GC — the stable
// measure of retained server state.
func settledHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func (r *E15Result) fields() []field {
	return []field{
		{"", "", "E15: million-prover single-shard run — intra-shard concurrent verification\n", nil, nil},
		{"provers", "%d", "provers %d", r.Provers, nil},
		{"workers", "%d", "  workers %d", r.Workers, nil},
		{"stripes", "%d", "  stripes %d", r.Stripes, nil},
		{"history", "%d", "  history %d\n", r.History, nil},
		{"sent", "%d", "sent %d", r.Sent, nil},
		{"accepted", "%d", "  accepted %d", r.Accepted, nil},
		{"rejected", "%d", "  rejected %d", r.Rejected, nil},
		{"replays", "%d", "  (replays %d", r.Replays, nil},
		{"", "", ", deliberate %d)", r.ReplaySent, nil},
		{"enrolled", "%d", "  enrolled %d\n", r.Enrolled, nil},
		{"wall_ns", "%d", "wall %.1fs", r.WallNS, secs(r.WallNS)},
		{"ver_per_sec", "%.1f", "  %.0f verified/s\n", r.VerPerSec, nil},
		{"heap_base", "%d", "heap: base %.1f MiB", r.HeapBaseBytes, mib(r.HeapBaseBytes)},
		{"heap_round1", "%d", ", after round1 %.1f MiB", r.HeapRound1Bytes, mib(r.HeapRound1Bytes)},
		{"heap_round2", "%d", ", after round2 %.1f MiB\n", r.HeapRound2Bytes, mib(r.HeapRound2Bytes)},
		{"bytes_per_prover", "%.2f", "per-prover state %.1f B", r.BytesPerProver, nil},
		{"round2_bytes_per_prover", "%.3f", "; marginal after a second full round %.2f B/prover (bounded dedup window)\n", r.Round2BytesPerProver, nil},
		{"checkpoint_bytes", "%d", "checkpoint: %d bytes", r.CheckpointBytes, nil},
		{"", "", " (%.1f B/prover)", float64(r.CheckpointBytes) / float64(r.Provers), nil},
		{"checkpoint_ns", "%d", " in %.2fs\n", r.CheckpointNS, secs(r.CheckpointNS)},
	}
}

// RenderE15 formats the run as text.
func RenderE15(r *E15Result) string { return renderFields(r.fields()) }

// E15CSV writes the run machine-readably.
func E15CSV(w io.Writer, r *E15Result) error { return fieldsCSV(w, r.fields()) }
