package rattd

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// Checkpointer persists one Server's fleet state to disk in the
// background: a base snapshot file plus a chain of delta files
// holding only the provers dirtied since the previous write, so the
// steady-state disk cost is O(changes), not O(fleet). It never stops
// ingest — snapshots stream stripe-at-a-time off the server's dirty
// tracking (see WriteCheckpoint).
//
// On-disk layout for a configured Path P:
//
//	P        the base snapshot (chain seq 0)
//	P.d1 …   delta files, one per snapshot since the base
//	P.tmp    in-flight base write (ignored by LoadChain)
//
// Crash-safety protocol: the base is written to P.tmp, fsynced, and
// atomically renamed over P (then the directory is synced), so P is
// always a complete snapshot of *some* generation — a crash before
// the rename leaves the old chain fully intact. Delta files are
// written in place and fsynced; a crash mid-delta leaves a torn tail
// that restore salvages up to the last complete record
// (DecodeChain), losing at most the final interval's freshness
// updates — the same exposure an interval-based checkpointer has
// anyway. Compaction (a fresh base) bumps the chain ID before old
// deltas are deleted, so a crash between the base rename and the
// delete leaves stale deltas that restore rejects by chain ID.
type Checkpointer struct {
	srv *Server
	cfg CheckpointerConfig

	mu         sync.Mutex
	chainID    uint64 // chain the current base starts; 0 = no base yet
	nextSeq    uint32 // seq of the next delta file
	baseBytes  int64  // size of the current base
	deltaBytes int64  // cumulative delta bytes since the base
	forceFull  bool   // next write must be a base (startup, prior error)
	stats      CheckpointerStats

	started bool
	stop    chan struct{}
	done    chan struct{}
}

// maxDeltas caps a chain's length: the tick that would write delta
// maxDeltas+1 compacts into a fresh base instead. A longer chain makes
// steady-state writes cheaper and restore slower (it replays in order).
const maxDeltas = 16

// CheckpointerConfig configures a Checkpointer.
type CheckpointerConfig struct {
	// Path is the base snapshot file; deltas live at Path.d1, Path.d2…
	Path string
	// Interval between background snapshots; <= 0 disables the
	// background goroutine (Tick/Close still write on demand).
	Interval time.Duration
	// MaxDeltaFrac compacts once cumulative delta bytes exceed this
	// fraction of the base size — past that point replay-at-restore
	// costs more than a fresh base would. Default 0.5.
	MaxDeltaFrac float64
	// PriorChainID seeds chain numbering after a restore so the new
	// chain is distinguishable from the restored one. 0 for cold start.
	PriorChainID uint64
	// Logf, if set, receives one line per write error.
	Logf func(format string, args ...any)
}

// CheckpointerStats are cumulative counters plus the last write's
// cost, for the daemon stats line.
type CheckpointerStats struct {
	Fulls       uint64        // base snapshots written
	Deltas      uint64        // delta files written
	Compactions uint64        // fulls that replaced an over-long chain
	Skips       uint64        // ticks skipped because nothing changed
	Errors      uint64        // failed writes (next write is a full)
	LastDirty   int64         // dirty provers consumed by the last write
	LastBytes   int64         // bytes of the last write
	LastWrote   time.Duration // wall time of the last write
}

// NewCheckpointer returns a stopped checkpointer; call Start to run
// it on its interval, or Tick to drive it manually.
func NewCheckpointer(s *Server, cfg CheckpointerConfig) *Checkpointer {
	if cfg.MaxDeltaFrac <= 0 {
		cfg.MaxDeltaFrac = 0.5
	}
	return &Checkpointer{
		srv:       s,
		cfg:       cfg,
		chainID:   0,
		forceFull: true,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
}

// Start launches the background loop (no-op when Interval <= 0).
func (c *Checkpointer) Start() {
	if c.cfg.Interval <= 0 {
		return
	}
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.mu.Unlock()
	go func() {
		defer close(c.done)
		tick := time.NewTicker(c.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if err := c.Tick(); err != nil && c.cfg.Logf != nil {
					c.cfg.Logf("rattd: checkpoint %s: %v", c.cfg.Path, err)
				}
			case <-c.stop:
				return
			}
		}
	}()
}

// Close stops the background loop and writes one final snapshot so
// shutdown is durable (skipped, like any tick, when nothing changed).
func (c *Checkpointer) Close() error {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	c.mu.Lock()
	started := c.started
	c.mu.Unlock()
	if started {
		<-c.done
	}
	return c.Tick()
}

// Stats returns a snapshot of the counters.
func (c *Checkpointer) Stats() CheckpointerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Tick makes one checkpoint decision and, unless the server is
// clean, performs the write: a base when none exists (or after an
// error, or when the chain is due for compaction), a delta
// otherwise. Safe to call concurrently with ingest; calls serialize
// against each other.
func (c *Checkpointer) Tick() error {
	c.mu.Lock()
	defer c.mu.Unlock()

	dirty := c.srv.DirtyCount()
	if !c.forceFull && dirty == 0 {
		// No prover moved since the last write: the chain on disk is
		// already exact. Challenges minted since leave nothing to
		// persist.
		c.stats.Skips++
		return nil
	}

	full := c.forceFull
	compact := false
	if !full && (c.nextSeq > maxDeltas ||
		float64(c.deltaBytes) > c.cfg.MaxDeltaFrac*float64(c.baseBytes)) {
		full, compact = true, true
	}

	start := time.Now()
	var stats SnapshotStats
	var err error
	if full {
		stats, err = c.writeFull()
	} else {
		stats, err = c.writeDelta()
	}
	if err != nil {
		// The failed write consumed the dirty set; only a fresh base
		// can recover those records.
		c.forceFull = true
		c.stats.Errors++
		return err
	}
	if full {
		c.stats.Fulls++
		if compact {
			c.stats.Compactions++
		}
	} else {
		c.stats.Deltas++
	}
	c.stats.LastDirty = dirty
	c.stats.LastBytes = stats.Bytes
	c.stats.LastWrote = time.Since(start)
	return nil
}

// writeFull writes a fresh base under a new chain ID via temp +
// fsync + rename, then retires the previous chain's delta files.
func (c *Checkpointer) writeFull() (SnapshotStats, error) {
	next := c.chainID + 1
	if c.cfg.PriorChainID >= next {
		next = c.cfg.PriorChainID + 1
	}
	tmp := c.cfg.Path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return SnapshotStats{}, err
	}
	stats, err := c.srv.WriteCheckpoint(f, SnapshotOptions{ChainID: next})
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, c.cfg.Path)
	}
	if err != nil {
		os.Remove(tmp)
		return stats, err
	}
	syncDir(c.cfg.Path)

	// The new base supersedes every prior delta; a crash before this
	// cleanup only leaves files the chain-ID check ignores.
	oldTop := c.nextSeq
	c.chainID = next
	c.nextSeq = 1
	c.baseBytes = stats.Bytes
	c.deltaBytes = 0
	c.forceFull = false
	for seq := uint32(1); seq <= oldTop; seq++ {
		os.Remove(deltaPath(c.cfg.Path, seq))
	}
	syncDir(c.cfg.Path)
	return stats, nil
}

// writeDelta writes the next delta file in place (no rename: a torn
// delta tail is recoverable by design, see DecodeChain).
func (c *Checkpointer) writeDelta() (SnapshotStats, error) {
	path := deltaPath(c.cfg.Path, c.nextSeq)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return SnapshotStats{}, err
	}
	stats, err := c.srv.WriteCheckpoint(f, SnapshotOptions{
		Delta: true, ChainID: c.chainID, Seq: c.nextSeq,
	})
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return stats, err
	}
	c.nextSeq++
	c.deltaBytes += stats.Bytes
	return stats, nil
}

func deltaPath(base string, seq uint32) string {
	return base + ".d" + strconv.FormatUint(uint64(seq), 10)
}

// syncDir fsyncs the directory holding path so a rename or unlink is
// durable; best-effort (some filesystems refuse directory syncs).
func syncDir(path string) {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// LoadChain reads the checkpoint chain rooted at path — the base
// plus consecutive delta files — and returns the merged state.
// Returns os.ErrNotExist (wrapped) when no base exists. Stale or
// torn deltas degrade per DecodeChain; an in-flight ".tmp" from a
// crashed base write is ignored. The error is hard only when the
// base itself is unreadable or corrupt.
func LoadChain(path string) (*Checkpoint, ChainStats, error) {
	base, err := os.ReadFile(path)
	if err != nil {
		return nil, ChainStats{}, err
	}
	var deltas [][]byte
	for seq := uint32(1); ; seq++ {
		db, err := os.ReadFile(deltaPath(path, seq))
		if err != nil {
			// A gap ends the chain: later files are stale leftovers.
			break
		}
		deltas = append(deltas, db)
	}
	cp, st, err := DecodeChain(base, deltas...)
	if err != nil {
		return nil, st, fmt.Errorf("%s: %w", path, err)
	}
	return cp, st, nil
}
