// Package mem models the attestable memory of a simple IoT prover.
//
// Memory is block structured: attestation mechanisms measure, lock and
// release whole blocks, and the paper's lock policies (All-Lock,
// Dec-Lock, Inc-Lock, ...) are expressed as per-block read-only locks
// enforced by an MPU-like check on every write. A designated ROM region
// holds the attestation code and key and is never writable by software,
// mirroring SMART's hard-wired access-control rules.
//
// Successful writes can be logged with their timestamps, which is what
// lets the verifier side reason about temporal consistency: a
// measurement is consistent with memory at instant t iff no block was
// written between the instant it was covered and t (paper §3.1, Fig. 4).
package mem

import (
	"bytes"
	"fmt"
	"math/rand/v2"

	"saferatt/internal/sim"
)

// LockError reports a write denied by a block lock.
type LockError struct {
	Block int
	Off   int
}

func (e *LockError) Error() string {
	return fmt.Sprintf("mem: write to offset %d denied: block %d is locked", e.Off, e.Block)
}

// ROMError reports a write into the read-only ROM region.
type ROMError struct {
	Off int
}

func (e *ROMError) Error() string {
	return fmt.Sprintf("mem: write to offset %d denied: ROM region", e.Off)
}

// BoundsError reports an out-of-range access.
type BoundsError struct {
	Off, Len, Size int
}

func (e *BoundsError) Error() string {
	return fmt.Sprintf("mem: access [%d,%d) out of range [0,%d)", e.Off, e.Off+e.Len, e.Size)
}

// Write is one entry of the write log.
type Write struct {
	At    sim.Time
	Block int
	Off   int
	Len   int
}

// Memory is block-structured attestable memory with MPU-style per-block
// write locks.
//
// Every Memory reads through an immutable Golden image and materializes
// a private copy of a block only when the block is first written —
// copy-on-write, so a fleet of devices provisioned from one image
// (NewShared) costs O(dirty blocks) private bytes per device instead of
// O(image). New is the same thing over an all-zero golden.
//
// The per-block bookkeeping arrays (priv, locked, gen) are
// allocated lazily on first use: a never-written, never-locked device —
// the common case in a large healthy fleet — carries only this struct.
// Nil arrays read as all-zero.
type Memory struct {
	golden *Golden  // content and layout
	priv   [][]byte // materialized per-block copies; lazy
	dirty  int      // number of materialized blocks
	locked []bool   // lazy
	gen    []uint64 // per-block content generation (see Generation); lazy
	log    []Write
	logOn  bool
	clock  func() sim.Time
	guard  func(firstBlock, lastBlock int) error
}

func (m *Memory) ensureLocked() []bool {
	if m.locked == nil {
		m.locked = make([]bool, m.NumBlocks())
	}
	return m.locked
}

func (m *Memory) ensureGen() []uint64 {
	if m.gen == nil {
		m.gen = make([]uint64, m.NumBlocks())
	}
	return m.gen
}

// Config describes a Memory layout.
type Config struct {
	// Size is the total byte size. Must be a positive multiple of
	// BlockSize.
	Size int
	// BlockSize is the lock/measurement granularity in bytes.
	BlockSize int
	// ROMBlocks is the number of leading blocks reserved as ROM
	// (attestation code + key). May be zero.
	ROMBlocks int
	// Clock supplies timestamps for logged writes. If nil, all writes
	// are stamped at time 0.
	Clock func() sim.Time
	// LogWrites enables the write log used for consistency analysis.
	// Leave it off for Monte Carlo sweeps: an unbounded log grows for
	// the lifetime of the Memory and costs an append per write.
	LogWrites bool
}

// New builds a zeroed Memory: a copy-on-write Memory over an all-zero
// golden image of cfg's layout. It panics on a malformed Config, since a
// bad layout is a programming error in an experiment definition.
func New(cfg Config) *Memory {
	g := zeroGolden(cfg.Size, cfg.BlockSize, cfg.ROMBlocks)
	return NewShared(g, Config{Clock: cfg.Clock, LogWrites: cfg.LogWrites})
}

// Size returns the total byte size.
func (m *Memory) Size() int { return len(m.golden.data) }

// BlockSize returns the block granularity in bytes.
func (m *Memory) BlockSize() int { return m.golden.blockSize }

// NumBlocks returns the number of blocks.
func (m *Memory) NumBlocks() int { return m.golden.nblocks }

// ROMBlocks returns the number of leading read-only ROM blocks.
func (m *Memory) ROMBlocks() int { return m.golden.romBlocks }

// BlockOf returns the block index containing byte offset off.
func (m *Memory) BlockOf(off int) int { return off / m.BlockSize() }

// Block returns a read-only view of block i. Callers must not mutate
// the returned slice; use WriteBlock for mutation so locks and
// timestamps are honored.
func (m *Memory) Block(i int) []byte {
	m.checkBlock(i)
	return m.blockRead(i)
}

// blockRead returns block i's current content without bounds checking:
// its materialized copy if it has one, else the golden block.
func (m *Memory) blockRead(i int) []byte {
	if m.priv != nil {
		if p := m.priv[i]; p != nil {
			return p
		}
	}
	return m.golden.Block(i)
}

// Read copies len(dst) bytes starting at off into dst. Reads are never
// blocked by locks (locks are read-only locks).
func (m *Memory) Read(off int, dst []byte) error {
	if off < 0 || off+len(dst) > m.Size() {
		return &BoundsError{Off: off, Len: len(dst), Size: m.Size()}
	}
	for n := 0; n < len(dst); {
		b := (off + n) / m.BlockSize()
		in := (off + n) % m.BlockSize()
		n += copy(dst[n:], m.blockRead(b)[in:])
	}
	return nil
}

// Write copies p into memory at off. It fails with *ROMError or
// *LockError if any touched block is ROM or locked; a failed write
// modifies nothing (writes are checked before any byte is stored).
func (m *Memory) Write(off int, p []byte) error {
	if off < 0 || off+len(p) > m.Size() {
		return &BoundsError{Off: off, Len: len(p), Size: m.Size()}
	}
	if len(p) == 0 {
		return nil
	}
	first, last := m.BlockOf(off), m.BlockOf(off+len(p)-1)
	if m.guard != nil {
		if err := m.guard(first, last); err != nil {
			return err
		}
	}
	for b := first; b <= last; b++ {
		if b < m.ROMBlocks() {
			return &ROMError{Off: off}
		}
		if m.locked != nil && m.locked[b] {
			return &LockError{Block: b, Off: off}
		}
	}
	m.store(off, p)
	gen := m.ensureGen()
	for b := first; b <= last; b++ {
		gen[b]++
	}
	if m.logOn {
		m.log = append(m.log, Write{At: m.clock(), Block: first, Off: off, Len: len(p)})
	}
	return nil
}

// store writes p at off, bypassing locks and bookkeeping (callers have
// already checked bounds and permissions). Every touched block is
// materialized first.
func (m *Memory) store(off int, p []byte) {
	for n := 0; n < len(p); {
		b := (off + n) / m.BlockSize()
		in := (off + n) % m.BlockSize()
		n += copy(m.materialize(b)[in:], p[n:])
	}
}

// materialize gives block b a private copy of its golden content and
// returns it; a no-op for already-private blocks.
func (m *Memory) materialize(b int) []byte {
	if m.priv == nil {
		m.priv = make([][]byte, m.NumBlocks())
	}
	if p := m.priv[b]; p != nil {
		return p
	}
	p := make([]byte, m.BlockSize())
	copy(p, m.golden.Block(b))
	m.priv[b] = p
	m.dirty++
	return p
}

// WriteBlock overwrites block i with p (which must be exactly one block
// long).
func (m *Memory) WriteBlock(i int, p []byte) error {
	m.checkBlock(i)
	if len(p) != m.BlockSize() {
		return fmt.Errorf("mem: WriteBlock: got %d bytes, want %d", len(p), m.BlockSize())
	}
	return m.Write(i*m.BlockSize(), p)
}

// Poke stores a single byte at off, honoring locks.
func (m *Memory) Poke(off int, v byte) error {
	return m.Write(off, []byte{v})
}

// Lock makes block i read-only. Locking ROM or an already-locked block
// is a no-op.
func (m *Memory) Lock(i int) {
	m.checkBlock(i)
	m.ensureLocked()[i] = true
}

// Unlock releases the lock on block i. ROM blocks stay read-only
// regardless.
func (m *Memory) Unlock(i int) {
	m.checkBlock(i)
	if m.locked != nil {
		m.locked[i] = false
	}
}

// LockAll locks every block.
func (m *Memory) LockAll() {
	locked := m.ensureLocked()
	for i := range locked {
		locked[i] = true
	}
}

// UnlockAll releases every lock.
func (m *Memory) UnlockAll() {
	for i := range m.locked {
		m.locked[i] = false
	}
}

// LockedCount returns the number of blocks currently write-protected,
// including ROM.
func (m *Memory) LockedCount() int {
	n := m.ROMBlocks()
	if m.locked == nil {
		return n
	}
	for i := m.ROMBlocks(); i < m.NumBlocks(); i++ {
		if m.locked[i] {
			n++
		}
	}
	return n
}

// WriteLog returns the log of successful writes in chronological order
// (nil unless LogWrites was set).
func (m *Memory) WriteLog() []Write { return m.log }

// Generation returns the content generation of block i: the number of
// mutations (successful writes, restores, random fills) that have
// touched it. Digest caches key on it — any mutation path must bump it,
// or a stale cached digest could mask malware.
func (m *Memory) Generation(i int) uint64 {
	m.checkBlock(i)
	if m.gen == nil {
		return 0
	}
	return m.gen[i]
}

// Snapshot returns a copy of the full memory contents.
func (m *Memory) Snapshot() []byte { return m.SnapshotInto(nil) }

// SnapshotInto copies the full memory contents into dst's capacity and
// returns the (resized) slice, allocating only when dst is too small.
// Hot callers that snapshot per round hand back the previous round's
// buffer; Snapshot is SnapshotInto(nil).
func (m *Memory) SnapshotInto(dst []byte) []byte {
	if cap(dst) >= m.Size() {
		dst = dst[:m.Size()]
	} else {
		dst = make([]byte, m.Size())
	}
	for b := 0; b < m.NumBlocks(); b++ {
		copy(dst[b*m.BlockSize():], m.blockRead(b))
	}
	return dst
}

// Restore overwrites memory contents from a snapshot, bypassing locks.
// It models out-of-band re-provisioning by the verifier (paper §1:
// "software can be re-set or rolled back") and is not reachable from
// simulated software. A block restored to its golden content is
// dematerialized: re-provisioning a device back to the fleet image
// returns it to O(0) private bytes.
func (m *Memory) Restore(s []byte) {
	if len(s) != m.Size() {
		panic(fmt.Sprintf("mem: Restore: snapshot %d bytes, memory %d", len(s), m.Size()))
	}
	for b := 0; b < m.NumBlocks(); b++ {
		want := s[b*m.BlockSize() : (b+1)*m.BlockSize()]
		if bytes.Equal(want, m.golden.Block(b)) {
			if m.priv != nil && m.priv[b] != nil {
				m.priv[b] = nil
				m.dirty--
			}
			continue
		}
		copy(m.materialize(b), want)
	}
	// Every block's content may have changed: bump all generations so
	// cached digests of the pre-restore content are invalidated.
	gen := m.ensureGen()
	for b := range gen {
		gen[b]++
	}
}

// FillRandom fills all non-ROM memory with deterministic pseudorandom
// content drawn from rng, bypassing locks, in RandomGolden's draw order:
// the same seed gives the same bytes either way. It materializes every
// non-ROM block, so provision a fleet with RandomGolden instead.
func (m *Memory) FillRandom(rng *rand.Rand) {
	start := m.ROMBlocks() * m.BlockSize()
	buf := make([]byte, m.Size()-start)
	fillRandom(buf, rng)
	m.store(start, buf)
	gen := m.ensureGen()
	for b := m.ROMBlocks(); b < m.NumBlocks(); b++ {
		gen[b]++
	}
}

// SetGuard installs an access-control hook consulted on every write
// (before ROM and lock checks). A nil guard removes the hook. The
// device layer uses this to model OS-enforced process isolation
// (TyTAN/HYDRA designs); a guard rejection's error surfaces to the
// writer.
func (m *Memory) SetGuard(g func(firstBlock, lastBlock int) error) { m.guard = g }

// DirtyBlocks returns the number of blocks holding private
// (materialized) copies — the per-device memory cost of a Memory beyond
// its shared golden image.
func (m *Memory) DirtyBlocks() int { return m.dirty }

// SharedGolden returns the golden image the Memory reads through.
// Verifier-side code uses it to intern one golden reference (and one
// digest cache) per fleet instead of one per device.
func (m *Memory) SharedGolden() *Golden { return m.golden }

// BlockClean reports whether block i is still read through the shared
// golden image — i.e. its content is bit-identical to the golden block.
// Digest caches use it to serve clean blocks from a fleet-wide golden
// cache.
func (m *Memory) BlockClean(i int) bool {
	m.checkBlock(i)
	return m.priv == nil || m.priv[i] == nil
}

func (m *Memory) checkBlock(i int) {
	if i < 0 || i >= m.NumBlocks() {
		panic(fmt.Sprintf("mem: block %d out of range [0,%d)", i, m.NumBlocks()))
	}
}
