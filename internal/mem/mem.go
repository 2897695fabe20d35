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
	"encoding/binary"
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
// A Memory has one of two backings. A flat Memory (New) owns a private
// byte array. A shared Memory (NewShared) reads through an immutable
// Golden image and materializes a private copy of a block only when the
// block is first written — copy-on-write, so a fleet of devices
// provisioned from one image costs O(dirty blocks) private bytes per
// device instead of O(image). Lock, write-log and generation semantics
// are identical in both modes.
//
// The per-block bookkeeping arrays (priv, locked, gen) are
// allocated lazily on first use: a never-written, never-locked device —
// the common case in a large healthy fleet — carries only this struct.
// Nil arrays read as all-zero.
type Memory struct {
	data      []byte // flat backing; nil in copy-on-write mode
	golden    *Golden
	priv      [][]byte // COW mode: materialized per-block copies; lazy
	dirty     int      // COW mode: number of materialized blocks
	size      int
	blockSize int
	nblocks   int
	locked    []bool   // lazy
	gen       []uint64 // per-block content generation (see Generation); lazy
	romBlocks int      // blocks [0, romBlocks) are ROM
	log       []Write
	logOn     bool
	logLimit  int
	logHead   int // ring start when logLimit > 0 and the log is full
	clock     func() sim.Time
	guard     func(firstBlock, lastBlock int) error
}

func (m *Memory) ensureLocked() []bool {
	if m.locked == nil {
		m.locked = make([]bool, m.nblocks)
	}
	return m.locked
}

func (m *Memory) ensureGen() []uint64 {
	if m.gen == nil {
		m.gen = make([]uint64, m.nblocks)
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
	// LogLimit bounds the write log to the most recent N entries when
	// positive (older entries are dropped). 0 keeps the historical
	// unbounded behavior.
	// Ignored unless LogWrites is set.
	LogLimit int
}

// New builds a zeroed Memory. It panics on a malformed Config, since a
// bad layout is a programming error in an experiment definition.
func New(cfg Config) *Memory {
	if cfg.BlockSize <= 0 {
		panic("mem: BlockSize must be positive")
	}
	if cfg.Size <= 0 || cfg.Size%cfg.BlockSize != 0 {
		panic(fmt.Sprintf("mem: Size %d must be a positive multiple of BlockSize %d", cfg.Size, cfg.BlockSize))
	}
	if cfg.ROMBlocks < 0 || cfg.ROMBlocks > cfg.Size/cfg.BlockSize {
		panic("mem: ROMBlocks out of range")
	}
	m := newMemory(cfg, cfg.Size, cfg.BlockSize, cfg.ROMBlocks)
	m.data = make([]byte, cfg.Size)
	return m
}

// newMemory is what New and NewShared share: the layout they each
// validated, and the write log's settings, which do not depend on the
// backing.
func newMemory(cfg Config, size, blockSize, romBlocks int) *Memory {
	clock := cfg.Clock
	if clock == nil {
		clock = func() sim.Time { return 0 }
	}
	if cfg.LogLimit < 0 {
		panic("mem: negative LogLimit")
	}
	return &Memory{
		size:      size,
		blockSize: blockSize,
		nblocks:   size / blockSize,
		romBlocks: romBlocks,
		logOn:     cfg.LogWrites,
		logLimit:  cfg.LogLimit,
		clock:     clock,
	}
}

// Size returns the total byte size.
func (m *Memory) Size() int { return m.size }

// BlockSize returns the block granularity in bytes.
func (m *Memory) BlockSize() int { return m.blockSize }

// NumBlocks returns the number of blocks.
func (m *Memory) NumBlocks() int { return m.nblocks }

// ROMBlocks returns the number of leading read-only ROM blocks.
func (m *Memory) ROMBlocks() int { return m.romBlocks }

// BlockOf returns the block index containing byte offset off.
func (m *Memory) BlockOf(off int) int { return off / m.blockSize }

// Block returns a read-only view of block i. Callers must not mutate
// the returned slice; use WriteBlock for mutation so locks and
// timestamps are honored.
func (m *Memory) Block(i int) []byte {
	m.checkBlock(i)
	return m.blockRead(i)
}

// blockRead returns block i's current content without bounds checking:
// the private array in flat mode, the materialized copy or the golden
// block in copy-on-write mode.
func (m *Memory) blockRead(i int) []byte {
	if m.data != nil {
		return m.data[i*m.blockSize : (i+1)*m.blockSize]
	}
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
	if off < 0 || off+len(dst) > m.size {
		return &BoundsError{Off: off, Len: len(dst), Size: m.size}
	}
	if m.data != nil {
		copy(dst, m.data[off:])
		return nil
	}
	for n := 0; n < len(dst); {
		b := (off + n) / m.blockSize
		in := (off + n) % m.blockSize
		n += copy(dst[n:], m.blockRead(b)[in:])
	}
	return nil
}

// Write copies p into memory at off. It fails with *ROMError or
// *LockError if any touched block is ROM or locked; a failed write
// modifies nothing (writes are checked before any byte is stored).
func (m *Memory) Write(off int, p []byte) error {
	if off < 0 || off+len(p) > m.size {
		return &BoundsError{Off: off, Len: len(p), Size: m.size}
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
		if b < m.romBlocks {
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
		m.logAppend(Write{At: m.clock(), Block: first, Off: off, Len: len(p)})
	}
	return nil
}

// logAppend records one write, honoring the retention limit: once the
// log holds logLimit entries it becomes a ring and the oldest entry is
// dropped per new write.
func (m *Memory) logAppend(w Write) {
	if m.logLimit <= 0 || len(m.log) < m.logLimit {
		m.log = append(m.log, w)
		return
	}
	m.log[m.logHead] = w
	m.logHead = (m.logHead + 1) % m.logLimit
}

// store writes p at off, bypassing locks and bookkeeping (callers have
// already checked bounds and permissions). In copy-on-write mode every
// touched block is materialized first.
func (m *Memory) store(off int, p []byte) {
	if m.data != nil {
		copy(m.data[off:], p)
		return
	}
	for n := 0; n < len(p); {
		b := (off + n) / m.blockSize
		in := (off + n) % m.blockSize
		n += copy(m.materialize(b)[in:], p[n:])
	}
}

// materialize gives block b a private copy of its golden content and
// returns it; a no-op for already-private blocks.
func (m *Memory) materialize(b int) []byte {
	if m.priv == nil {
		m.priv = make([][]byte, m.nblocks)
	}
	if p := m.priv[b]; p != nil {
		return p
	}
	p := make([]byte, m.blockSize)
	copy(p, m.golden.Block(b))
	m.priv[b] = p
	m.dirty++
	return p
}

// WriteBlock overwrites block i with p (which must be exactly one block
// long).
func (m *Memory) WriteBlock(i int, p []byte) error {
	m.checkBlock(i)
	if len(p) != m.blockSize {
		return fmt.Errorf("mem: WriteBlock: got %d bytes, want %d", len(p), m.blockSize)
	}
	return m.Write(i*m.blockSize, p)
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
	n := m.romBlocks
	if m.locked == nil {
		return n
	}
	for i := m.romBlocks; i < m.nblocks; i++ {
		if m.locked[i] {
			n++
		}
	}
	return n
}

// WriteLog returns the log of successful writes in chronological order
// (nil unless LogWrites was set). With a LogLimit in effect only the
// most recent entries are retained.
func (m *Memory) WriteLog() []Write {
	if m.logHead == 0 {
		return m.log
	}
	out := make([]Write, 0, len(m.log))
	out = append(out, m.log[m.logHead:]...)
	return append(out, m.log[:m.logHead]...)
}

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
	if cap(dst) >= m.size {
		dst = dst[:m.size]
	} else {
		dst = make([]byte, m.size)
	}
	if m.data != nil {
		copy(dst, m.data)
		return dst
	}
	for b := 0; b < m.nblocks; b++ {
		copy(dst[b*m.blockSize:], m.blockRead(b))
	}
	return dst
}

// Restore overwrites memory contents from a snapshot, bypassing locks.
// It models out-of-band re-provisioning by the verifier (paper §1:
// "software can be re-set or rolled back") and is not reachable from
// simulated software. In copy-on-write mode a block restored to its
// golden content is dematerialized: re-provisioning a device back to
// the fleet image returns it to O(0) private bytes.
func (m *Memory) Restore(s []byte) {
	if len(s) != m.size {
		panic(fmt.Sprintf("mem: Restore: snapshot %d bytes, memory %d", len(s), m.size))
	}
	if m.data != nil {
		copy(m.data, s)
	} else {
		for b := 0; b < m.nblocks; b++ {
			want := s[b*m.blockSize : (b+1)*m.blockSize]
			if bytes.Equal(want, m.golden.Block(b)) {
				if m.priv != nil && m.priv[b] != nil {
					m.priv[b] = nil
					m.dirty--
				}
				continue
			}
			copy(m.materialize(b), want)
		}
	}
	// Every block's content may have changed: bump all generations so
	// cached digests of the pre-restore content are invalidated.
	gen := m.ensureGen()
	for b := range gen {
		gen[b]++
	}
}

// FillRandom fills all non-ROM memory with deterministic pseudorandom
// content drawn from rng, bypassing locks. Used to provision benign
// device state. It draws one Uint64 per 8 bytes: per-byte generator
// calls used to dominate world construction in Monte Carlo profiles.
func (m *Memory) FillRandom(rng *rand.Rand) {
	start := m.romBlocks * m.blockSize
	i := start
	if m.data != nil {
		for ; i+8 <= m.size; i += 8 {
			binary.LittleEndian.PutUint64(m.data[i:], rng.Uint64())
		}
		for ; i < m.size; i++ {
			m.data[i] = byte(rng.Uint32())
		}
	} else {
		// COW mode: materialize and fill, drawing in exactly the flat
		// order so content is backing-independent for a given seed.
		// (Provision the golden image instead where possible — filling
		// defeats sharing.)
		var w [8]byte
		for ; i+8 <= m.size; i += 8 {
			binary.LittleEndian.PutUint64(w[:], rng.Uint64())
			m.store(i, w[:])
		}
		for ; i < m.size; i++ {
			w[0] = byte(rng.Uint32())
			m.store(i, w[:1])
		}
	}
	gen := m.ensureGen()
	for b := m.romBlocks; b < m.nblocks; b++ {
		gen[b]++
	}
}

// SetGuard installs an access-control hook consulted on every write
// (before ROM and lock checks). A nil guard removes the hook. The
// device layer uses this to model OS-enforced process isolation
// (TyTAN/HYDRA designs); a guard rejection's error surfaces to the
// writer.
func (m *Memory) SetGuard(g func(firstBlock, lastBlock int) error) { m.guard = g }

// Raw returns the raw flat backing store; used by attestation ROM code
// (hashing reads) without copying. A copy-on-write Memory is flattened
// first: the full image is materialized into a private array and the
// golden link severed, so sharing is lost — swarm-scale paths read
// through Block instead.
func (m *Memory) Raw() []byte {
	if m.data == nil {
		m.flatten()
	}
	return m.data
}

// flatten converts a copy-on-write Memory to a flat one with identical
// content, locks and generations.
func (m *Memory) flatten() {
	flat := make([]byte, m.size)
	for b := 0; b < m.nblocks; b++ {
		copy(flat[b*m.blockSize:], m.blockRead(b))
	}
	m.data = flat
	m.golden = nil
	m.priv = nil
	m.dirty = 0
}

// DirtyBlocks returns the number of blocks holding private
// (materialized) copies — the per-device memory cost of a copy-on-write
// Memory beyond its shared golden image. Flat memories report 0.
func (m *Memory) DirtyBlocks() int { return m.dirty }

// SharedGolden returns the golden image a copy-on-write Memory reads
// through, or nil for a flat Memory. Verifier-side code uses it to
// intern one golden reference (and one digest cache) per fleet instead
// of one per device.
func (m *Memory) SharedGolden() *Golden { return m.golden }

// BlockClean reports whether block i is still read through the shared
// golden image — i.e. its content is bit-identical to the golden block.
// Always false for flat memories. Digest caches use it to serve clean
// blocks from a fleet-wide golden cache.
func (m *Memory) BlockClean(i int) bool {
	m.checkBlock(i)
	return m.golden != nil && (m.priv == nil || m.priv[i] == nil)
}

func (m *Memory) checkBlock(i int) {
	if i < 0 || i >= m.nblocks {
		panic(fmt.Sprintf("mem: block %d out of range [0,%d)", i, m.nblocks))
	}
}
