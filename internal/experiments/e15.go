package experiments

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"saferatt/internal/core"
	"saferatt/internal/rattd"
	"saferatt/internal/transport"
)

// E15 is the million-prover scale run: one rattd shard, driven
// in-process over transport.Local by GOMAXPROCS concurrent ingest
// workers — the intra-shard concurrency experiment. The run enrolls cfg.Provers provers, pushes two ERASMUS
// collection rounds through every one of them, mixes in SeED reports
// for a slice of the fleet, replays a sample (each replay must be
// rejected exactly once), and checkpoints the final state.
//
// The quantities it certifies (bench/baseline.json; now ops_per_s on
// inproc_mixed and rattd.state_bytes_per_prover):
//
//   - zero verification failures at fleet scale (counts are conserved
//     and every submitted fresh report is accepted);
//   - bounded memory: per-prover server bytes after round one, and
//     the marginal bytes per prover after a second full round — the
//     bounded dedup window makes state O(provers), not O(reports), so
//     the second number must be ≈0;
//   - aggregate verifications/sec with all cores ingesting one shard.
type E15Config struct {
	// Provers is the fleet size; default 1_000_000.
	Provers int
	// MemSize / BlockSize set the golden image; defaults 4 KiB / 256.
	MemSize   int
	BlockSize int
	// History is the collection depth per round; default 4.
	History int
	// SeedEvery sends a SeED report for every n-th prover (per-prover
	// nonces make SeED the expensive, unamortizable path); default 16.
	SeedEvery int
	// ReplayEvery replays the round-one bundle of every n-th prover
	// after the rounds; default 1000.
	ReplayEvery int
	// Workers is the ingest concurrency; default GOMAXPROCS.
	Workers int
	// Stripes overrides the server's lock-stripe count; 0 = default.
	Stripes int
	// Seed parameterizes the golden image.
	Seed uint64
	// Logf, if set, receives phase progress.
	Logf func(format string, args ...any)
}

func (c *E15Config) setDefaults() {
	if c.Provers == 0 {
		c.Provers = 1_000_000
	}
	if c.MemSize == 0 {
		c.MemSize = 4 << 10
	}
	if c.BlockSize == 0 {
		c.BlockSize = 256
	}
	if c.History == 0 {
		c.History = 4
	}
	if c.SeedEvery == 0 {
		c.SeedEvery = 16
	}
	if c.ReplayEvery == 0 {
		c.ReplayEvery = 1000
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
}

// E15Result is the scale run's outcome.
type E15Result struct {
	Provers  int
	Workers  int
	Stripes  int
	History  int
	Enrolled int

	// Reports ingested / accepted / rejected / replays, server-side.
	Sent     uint64
	Accepted uint64
	Rejected uint64
	Replays  uint64
	// SeedSent counts SeED reports within Sent; ReplaySent the
	// deliberately replayed reports within Sent.
	SeedSent   uint64
	ReplaySent uint64

	// WallNS covers the two collection rounds plus the SeED phase;
	// VerPerSec is accepted verifications over that window.
	WallNS    int64
	VerPerSec float64

	// HeapBaseBytes is live heap before the server sees traffic (fleet
	// name table included); HeapRound1Bytes / HeapRound2Bytes after
	// each full round (GC-settled). BytesPerProver is
	// (round1-base)/provers; Round2BytesPerProver the marginal
	// (round2-round1)/provers — ≈0 when dedup state is bounded.
	HeapBaseBytes        uint64
	HeapRound1Bytes      uint64
	HeapRound2Bytes      uint64
	BytesPerProver       float64
	Round2BytesPerProver float64

	// CheckpointBytes is the encoded v2 checkpoint size (fixed window
	// per prover); CheckpointNS the snapshot+encode wall time.
	CheckpointBytes int
	CheckpointNS    int64
}

// E15MillionProvers runs the scale experiment.
func E15MillionProvers(cfg E15Config) (*E15Result, error) {
	cfg.setDefaults()
	logf := func(format string, args ...any) {
		if cfg.Logf != nil {
			cfg.Logf(format, args...)
		}
	}
	image := rattd.GoldenImage(cfg.Seed, cfg.MemSize, cfg.BlockSize)
	srv, err := rattd.Serve(transport.NewLocal(), rattd.Config{
		Ref: image, BlockSize: cfg.BlockSize, Stripes: cfg.Stripes,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	res := &E15Result{
		Provers: cfg.Provers, Workers: cfg.Workers,
		Stripes: srv.Stripes(), History: cfg.History,
	}

	names := make([]string, cfg.Provers)
	for i := range names {
		names[i] = fmt.Sprintf("prv%07d", i)
	}
	// Template bundles: the fleet shares one key, so for a given
	// counter every prover's ERASMUS report is byte-identical — one
	// measurement serves a million submissions (the same amortization
	// the batch verifier performs on the receive side).
	tmpl, err := rattd.NewProver("tmpl", rattd.DefaultKey, image, cfg.BlockSize)
	if err != nil {
		return nil, err
	}
	bundle := func(lo, hi uint64) ([]core.Report, error) {
		var rs []core.Report
		for c := lo; c <= hi; c++ {
			r, err := tmpl.SelfMeasure(c)
			if err != nil {
				return nil, err
			}
			rs = append(rs, *r)
		}
		return rs, nil
	}
	h := uint64(cfg.History)
	round1, err := bundle(1, h)
	if err != nil {
		return nil, err
	}
	round2, err := bundle(h+1, 2*h)
	if err != nil {
		return nil, err
	}

	res.HeapBaseBytes = settledHeap()

	// fanOut runs fn(i) for every prover index across the worker pool.
	fanOut := func(fn func(i int)) {
		var wg sync.WaitGroup
		per := (cfg.Provers + cfg.Workers - 1) / cfg.Workers
		for w := 0; w < cfg.Workers; w++ {
			lo, hi := w*per, (w+1)*per
			if hi > cfg.Provers {
				hi = cfg.Provers
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}(lo, hi)
		}
		wg.Wait()
	}

	start := time.Now()
	fanOut(func(i int) {
		srv.Ingest(names[i], transport.KindCollection, round1)
	})
	res.Sent += uint64(cfg.Provers) * h
	res.HeapRound1Bytes = settledHeap()
	logf("e15: round 1 done: %d provers enrolled, heap %.1f MiB",
		srv.Enrolled(), float64(res.HeapRound1Bytes)/(1<<20))

	fanOut(func(i int) {
		srv.Ingest(names[i], transport.KindCollection, round2)
	})
	res.Sent += uint64(cfg.Provers) * h
	res.HeapRound2Bytes = settledHeap()
	logf("e15: round 2 done: heap %.1f MiB", float64(res.HeapRound2Bytes)/(1<<20))

	// SeED phase: per-prover nonces, so each report is individually
	// measured prover-side and individually verified daemon-side — the
	// unamortizable fraction of fleet traffic.
	var seedErr error
	var seedErrMu sync.Mutex
	fanOut(func(i int) {
		if i%cfg.SeedEvery != 0 {
			return
		}
		p, err := rattd.NewProver(names[i], rattd.DefaultKey, image, cfg.BlockSize)
		if err == nil {
			var r *core.Report
			if r, err = p.SeedReport(1); err == nil {
				srv.Ingest(names[i], transport.KindSeedReport, []core.Report{*r})
			}
		}
		if err != nil {
			seedErrMu.Lock()
			seedErr = err
			seedErrMu.Unlock()
		}
	})
	if seedErr != nil {
		return nil, seedErr
	}
	nSeed := uint64((cfg.Provers + cfg.SeedEvery - 1) / cfg.SeedEvery)
	res.SeedSent = nSeed
	res.Sent += nSeed
	res.WallNS = time.Since(start).Nanoseconds()

	// Replay phase: a sample of provers resubmits its round-one
	// bundle; every report must be rejected, each counted as a replay
	// exactly once.
	preReplay := srv.Counts()
	fanOut(func(i int) {
		if i%cfg.ReplayEvery != 0 {
			return
		}
		srv.Ingest(names[i], transport.KindCollection, round1)
	})
	nReplaySample := uint64((cfg.Provers + cfg.ReplayEvery - 1) / cfg.ReplayEvery)
	res.ReplaySent = nReplaySample * h
	res.Sent += res.ReplaySent

	counts := srv.Counts()
	res.Accepted = counts.Accepted
	res.Rejected = counts.Rejected
	res.Replays = counts.Replays
	res.Enrolled = srv.Enrolled()
	res.VerPerSec = float64(preReplay.Accepted) / (float64(res.WallNS) / 1e9)
	res.BytesPerProver = float64(int64(res.HeapRound1Bytes)-int64(res.HeapBaseBytes)) / float64(cfg.Provers)
	res.Round2BytesPerProver = float64(int64(res.HeapRound2Bytes)-int64(res.HeapRound1Bytes)) / float64(cfg.Provers)

	cpStart := time.Now()
	cpStats, err := srv.WriteCheckpoint(io.Discard, rattd.SnapshotOptions{})
	if err != nil {
		return res, fmt.Errorf("e15: checkpoint: %v", err)
	}
	res.CheckpointNS = time.Since(cpStart).Nanoseconds()
	res.CheckpointBytes = int(cpStats.Bytes)

	// Internal consistency: conservation and exactly-once.
	wantAccepted := uint64(cfg.Provers)*2*h + nSeed
	if res.Accepted != wantAccepted {
		return res, fmt.Errorf("e15: accepted %d, want %d (verification failures at scale)",
			res.Accepted, wantAccepted)
	}
	if res.Accepted+res.Rejected != res.Sent {
		return res, fmt.Errorf("e15: counts not conserved: %d+%d != %d",
			res.Accepted, res.Rejected, res.Sent)
	}
	if got := counts.Replays - preReplay.Replays; got != res.ReplaySent {
		return res, fmt.Errorf("e15: replay sample rejected %d times, want exactly %d", got, res.ReplaySent)
	}
	if res.Enrolled != cfg.Provers {
		return res, fmt.Errorf("e15: enrolled %d, want %d", res.Enrolled, cfg.Provers)
	}
	return res, nil
}

// settledHeap returns live heap bytes after a full GC — the stable
// measure of retained server state.
func settledHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// RenderE15 formats the run as text.
func RenderE15(r *E15Result) string {
	var b strings.Builder
	b.WriteString("E15: million-prover single-shard run — intra-shard concurrent verification\n")
	fmt.Fprintf(&b, "provers %d  workers %d  stripes %d  history %d\n",
		r.Provers, r.Workers, r.Stripes, r.History)
	fmt.Fprintf(&b, "sent %d  accepted %d  rejected %d  (replays %d, deliberate %d)  enrolled %d\n",
		r.Sent, r.Accepted, r.Rejected, r.Replays, r.ReplaySent, r.Enrolled)
	fmt.Fprintf(&b, "wall %.1fs  %.0f verified/s\n", float64(r.WallNS)/1e9, r.VerPerSec)
	fmt.Fprintf(&b, "heap: base %.1f MiB, after round1 %.1f MiB, after round2 %.1f MiB\n",
		float64(r.HeapBaseBytes)/(1<<20), float64(r.HeapRound1Bytes)/(1<<20), float64(r.HeapRound2Bytes)/(1<<20))
	fmt.Fprintf(&b, "per-prover state %.1f B; marginal after a second full round %.2f B/prover (bounded dedup window)\n",
		r.BytesPerProver, r.Round2BytesPerProver)
	fmt.Fprintf(&b, "checkpoint: %d bytes (%.1f B/prover) in %.2fs\n",
		r.CheckpointBytes, float64(r.CheckpointBytes)/float64(r.Provers), float64(r.CheckpointNS)/1e9)
	return b.String()
}

// E15CSV writes the run machine-readably.
func E15CSV(w io.Writer, r *E15Result) error {
	if _, err := fmt.Fprintln(w, "provers,workers,stripes,history,sent,accepted,rejected,replays,enrolled,wall_ns,ver_per_sec,heap_base,heap_round1,heap_round2,bytes_per_prover,round2_bytes_per_prover,checkpoint_bytes,checkpoint_ns"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.1f,%d,%d,%d,%.2f,%.3f,%d,%d\n",
		r.Provers, r.Workers, r.Stripes, r.History, r.Sent, r.Accepted, r.Rejected, r.Replays,
		r.Enrolled, r.WallNS, r.VerPerSec, r.HeapBaseBytes, r.HeapRound1Bytes, r.HeapRound2Bytes,
		r.BytesPerProver, r.Round2BytesPerProver, r.CheckpointBytes, r.CheckpointNS)
	return err
}
