// Package inccache implements dirty-block digest caching for the
// incremental measurement engine.
//
// The paper's mechanisms are block-granular: lock policies (§3.1) and
// SMARM's shuffled traversal (§3.2) both cover memory one block at a
// time, and repeated self-measurement (ERASMUS, SeED) re-measures an
// image in which only a handful of blocks changed since the previous
// round. The incremental engine therefore measures in two levels: an
// unkeyed per-block content digest, cached here and recomputed only
// when the block's generation counter says it was written, folded into
// the keyed outer tag that binds nonce, round and traversal order.
//
// This is a host-CPU optimization only. Simulated durations are still
// charged for full block hashing, so virtual-time results are identical
// to the streaming path; detection outcomes match because the outer tag
// over golden digests equals the outer tag over measured digests
// exactly when every covered block's content matches the reference.
//
// Correctness depends on invalidation: every mutation path of
// mem.Memory (Write, WriteBlock, Poke, Restore, FillRandom) bumps the
// per-block generation this cache keys on. A mutation path that forgot
// to would let a stale digest mask malware — see the regression tests.
// A block of a copy-on-write memory whose content is golden — never
// written, or written back to exactly its golden bytes — takes its
// digest from the golden's cache, which the golden itself owns
// (SharedImage, DESIGN §6).
//
// Caches are safe for concurrent use: the parallel trial engine may
// share a verifier-side golden cache across workers.
package inccache

import (
	"bytes"
	"fmt"
	"sync"

	"saferatt/internal/mem"
	"saferatt/internal/suite"
)

// DigestHash maps a measurement scheme's hash to the unkeyed hash used
// for per-block digests: the scheme's own hash when it has an unkeyed
// mode, SHA-256 for keyed-only primitives (AES-CMAC).
func DigestHash(id suite.HashID) suite.HashID {
	if id == suite.AESCMAC {
		return suite.SHA256
	}
	return id
}

// DigestSize returns the digest length in bytes for a (digest-capable)
// hash. Uses pooled hash state: it runs once per cache construction,
// which is once per device in a fleet.
func DigestSize(id suite.HashID) int {
	h, err := suite.AcquireHash(id)
	if err != nil {
		panic("inccache: " + err.Error())
	}
	n := h.Size()
	suite.ReleaseHash(id, h)
	return n
}

// Stats counts cache effectiveness.
type Stats struct {
	Hits   uint64 // digests served from this cache
	Misses uint64 // digests (re)computed
	Shared uint64 // digests of golden content, served from the golden's cache
	Seeded uint64 // digests inherited from a predecessor image (rotation)
}

// MemCache caches per-block digests of a live mem.Memory, keyed on the
// block's generation counter. One cache serves all measurements on a
// device for a given digest hash: per-block digests survive across
// rounds, sessions and mechanisms as long as the block is not written.
type MemCache struct {
	mu     sync.Mutex
	mem    *mem.Memory
	golden *ImageCache // the golden's digests, for COW memories; nil for flat ones
	hash   suite.HashID
	size   int
	// stamp/dig are allocated on the first digest that cannot be served
	// from the shared golden cache: a clean copy-on-write device never
	// pays for per-device digest storage.
	stamp []uint64 // generation+1 at fill time; 0 = never filled
	dig   []byte   // nblocks × size, flat
	stats Stats
}

// NewMem builds an empty cache over m using the given digest hash (pass
// the scheme hash through DigestHash first). For a copy-on-write memory
// (mem.NewShared), digests of golden content are served from the
// golden's own cache (SharedImage), so a fleet of devices on one image
// hashes each golden block once total rather than once per device.
func NewMem(m *mem.Memory, hash suite.HashID) *MemCache {
	c := &MemCache{
		mem:  m,
		hash: hash,
		size: DigestSize(hash),
	}
	if g := m.SharedGolden(); g != nil {
		c.golden = SharedImage(g, hash)
	}
	return c
}

// Digest returns the digest of block b's current content, serving from
// cache when the block's generation is unchanged since the digest was
// computed. The returned slice aliases cache-internal storage: it is
// valid until the next Digest call for b and must not be mutated.
func (c *MemCache) Digest(b int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	// A clean COW block is bit-identical to the golden block (writes
	// materialize; restores that recover golden content dematerialize),
	// so the golden's digest is the digest of the live content — no
	// generation check needed.
	if c.golden != nil && c.mem.BlockClean(b) {
		c.stats.Shared++
		return c.golden.Digest(b)
	}
	if c.stamp == nil {
		n := c.mem.NumBlocks()
		c.stamp = make([]uint64, n)
		c.dig = make([]byte, n*c.size)
	}
	want := c.mem.Generation(b) + 1
	d := c.dig[b*c.size : (b+1)*c.size : (b+1)*c.size]
	if c.stamp[b] == want {
		c.stats.Hits++
		return d
	}
	content := c.mem.Block(b)
	c.stamp[b] = want
	// The golden rule: a written block whose content is golden again —
	// malware putting back what it displaced — has the golden digest.
	// One full-block comparison decides it, so it is exact: any other
	// content, one byte off included, is hashed below.
	if c.golden != nil && bytes.Equal(content, c.golden.block(b)) {
		copy(d, c.golden.Digest(b))
		c.stats.Shared++
		return d
	}
	sumInto(c.hash, content, d)
	c.stats.Misses++
	return d
}

// Stats returns a snapshot of hit/miss counters.
func (c *MemCache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ImageCache caches per-block digests of an immutable reference image —
// the verifier's golden side. Blocks are digested lazily, once.
type ImageCache struct {
	mu        sync.Mutex
	ref       []byte
	blockSize int
	hash      suite.HashID
	size      int
	done      []bool
	dig       []byte
	stats     Stats
}

// NewImage builds a cache over a golden image. The caller must not
// mutate ref afterwards. Panics if ref is not block-aligned (golden
// geometry is experiment code, not input).
func NewImage(ref []byte, blockSize int, hash suite.HashID) *ImageCache {
	if blockSize <= 0 || len(ref)%blockSize != 0 {
		panic(fmt.Sprintf("inccache: image of %d bytes is not a multiple of block size %d", len(ref), blockSize))
	}
	size := DigestSize(hash)
	n := len(ref) / blockSize
	return &ImageCache{
		ref:       ref,
		blockSize: blockSize,
		hash:      hash,
		size:      size,
		done:      make([]bool, n),
		dig:       make([]byte, n*size),
	}
}

// NumBlocks returns the number of blocks in the image.
func (c *ImageCache) NumBlocks() int { return len(c.done) }

// BlockSize returns the image's block granularity.
func (c *ImageCache) BlockSize() int { return c.blockSize }

// Hash returns the digest hash the cache computes.
func (c *ImageCache) Hash() suite.HashID { return c.hash }

// Digest returns the digest of golden block b, computing it on first
// use. The returned slice aliases cache-internal storage and must not
// be mutated.
func (c *ImageCache) Digest(b int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.dig[b*c.size : (b+1)*c.size : (b+1)*c.size]
	if c.done[b] {
		c.stats.Hits++
		return d
	}
	sumInto(c.hash, c.block(b), d)
	c.done[b] = true
	c.stats.Misses++
	return d
}

// block returns golden block b's content (immutable: no lock needed).
func (c *ImageCache) block(b int) []byte { return c.ref[b*c.blockSize : (b+1)*c.blockSize] }

// DigestOK is Digest with the (func(int) ([]byte, error)) signature the
// expected-stream helpers take; the error is always nil.
func (c *ImageCache) DigestOK(b int) ([]byte, error) { return c.Digest(b), nil }

// Stats returns a snapshot of hit/miss counters.
func (c *ImageCache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// DigestOf appends the digest of an arbitrary block content to dst and
// returns the extended slice — used for per-report override blocks
// (DataReported copies) that are not worth caching.
func DigestOf(hash suite.HashID, content, dst []byte) []byte {
	h, err := suite.AcquireHash(hash)
	if err != nil {
		panic("inccache: " + err.Error())
	}
	h.Write(content)
	dst = h.Sum(dst)
	suite.ReleaseHash(hash, h)
	return dst
}

// digestCaches returns the digest caches g carries (mem.Golden.Attached),
// one *ImageCache per digest hash. The golden holds them and nothing
// process-wide does, so they are collected with it.
func digestCaches(g *mem.Golden) *sync.Map {
	return g.Attached(func() any { return new(sync.Map) }).(*sync.Map)
}

// SharedImage returns the golden's digest cache for hash, creating it on
// first use. Every copy-on-write device on the same golden, and every
// verifier checking reports against it, shares one cache — a 10k-device
// swarm round hashes each golden block about once host-wide instead of
// once per device. Safe because Golden is immutable and ImageCache is
// concurrency-safe. The cache belongs to the golden: it lives exactly as
// long as the golden does.
func SharedImage(g *mem.Golden, hash suite.HashID) *ImageCache {
	return SharedImageDerived(nil, g, hash)
}

// SharedImageDerived returns newG's digest cache for hash, seeding it
// on creation from oldG's: every block whose content is bit-identical
// across the two images inherits its already-computed digest, so a
// golden rotation (OTA update) re-hashes only the blocks the update
// actually changed. Blocks never digested under oldG stay lazy as
// usual. When oldG is nil, the geometries differ, or oldG has no cache
// for hash yet, this is SharedImage(newG, hash).
func SharedImageDerived(oldG, newG *mem.Golden, hash suite.HashID) *ImageCache {
	caches := digestCaches(newG)
	if c, ok := caches.Load(hash); ok {
		return c.(*ImageCache)
	}
	c := NewImage(newG.Bytes(), newG.BlockSize(), hash)
	if oldG != nil && oldG.BlockSize() == newG.BlockSize() {
		if prev, ok := digestCaches(oldG).Load(hash); ok {
			oc := prev.(*ImageCache)
			n := min(oc.NumBlocks(), newG.NumBlocks())
			oc.mu.Lock()
			for b := 0; b < n; b++ {
				if oc.done[b] && bytes.Equal(oldG.Block(b), newG.Block(b)) {
					copy(c.dig[b*c.size:(b+1)*c.size], oc.dig[b*oc.size:(b+1)*oc.size])
					c.done[b] = true
					c.stats.Seeded++
				}
			}
			oc.mu.Unlock()
		}
	}
	actual, _ := caches.LoadOrStore(hash, c)
	return actual.(*ImageCache)
}

type zeroKey struct {
	hash      suite.HashID
	blockSize int
}

var zeroDigests sync.Map // zeroKey -> []byte

// ZeroDigest returns the digest of an all-zero block of the given size,
// cached process-wide: zeroed data regions (§2.3) recur across every
// trial of a sweep.
func ZeroDigest(hash suite.HashID, blockSize int) []byte {
	k := zeroKey{hash: hash, blockSize: blockSize}
	if d, ok := zeroDigests.Load(k); ok {
		return d.([]byte)
	}
	d := DigestOf(hash, make([]byte, blockSize), nil)
	actual, _ := zeroDigests.LoadOrStore(k, d)
	return actual.([]byte)
}

// sumInto computes hash(content) into dst (which must be exactly the
// digest size), using pooled hash state.
func sumInto(hash suite.HashID, content, dst []byte) {
	h, err := suite.AcquireHash(hash)
	if err != nil {
		panic("inccache: " + err.Error())
	}
	h.Write(content)
	h.Sum(dst[:0])
	suite.ReleaseHash(hash, h)
}
