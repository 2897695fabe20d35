package verifier

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"saferatt/internal/core"
	"saferatt/internal/suite"
)

// Batch amortizes verification across the reports of one collection
// round. The expected measurement over a golden image is a pure
// function of (attestation key, nonce, round, traversal order, data
// path): in a fleet of identical devices every clean report in a round
// carries the SAME expected tag, so the verifier can compute it once
// per group and reduce each report to a constant-time tag comparison —
// O(image) work per round instead of per device.
//
// Batch is MAC-mode only (shared symmetric key, the paper's low-end
// device setting). Reports with a restricted region or reported data
// blocks vary per device and are not batchable; callers route them to
// the ordinary per-report path (see swarm.Collector.Judge).
//
// Expected tags are cached per nonce epoch in a fifoTable: Verify is
// safe for any number of concurrent callers, and the steady-state hit
// path — the one a daemon's dispatch workers hammer — takes no lock
// and performs no allocation. Inserts (one per new (epoch, group),
// i.e. once per fleet-wide expected-tag computation) link one entry in
// under a writer mutex, whatever the table holds; concurrent misses on
// the same group may compute the tag redundantly, which is harmless
// and rare. Eviction is insertion-ordered and bounded by KeepEpochs
// (≤1 keeps the single-epoch behavior).
//
// A tag is worth a cache slot only if its nonce can recur. Verify
// publishes, and is for nonces a fleet shares: ERASMUS collections
// (rattd.Server's collection handler, whose nonce is a PRF of the fleet
// key and the counter) and a swarm round's common challenge
// (swarm.Collector). VerifyOnce is for nonces the protocol makes
// one-shot — a SMART challenge is consumed by its response, a SeED
// nonce is per prover and sits at or below the watermark once accepted
// — and computes the same expected tag without looking in the cache or
// inserting: an insert there would evict an epoch the fleet still
// shares.
type Batch struct {
	// KeepEpochs bounds how many nonce epochs of expected tags stay
	// cached at once. Zero or one keeps the single-epoch behavior.
	// Set it before the first Verify; it is read on the insert path.
	KeepEpochs int

	hash suite.HashID
	img  Image

	cache atomic.Pointer[fifoTable[batchEpoch]] // epoch→group→tag; nil until the first publish
	key   atomic.Pointer[keyMemo]               // []byte→string memo of the fleet key
	mu    sync.Mutex                            // serializes publication

	reports  atomic.Uint64
	computed atomic.Uint64
}

// batchEpoch is one nonce epoch's expected tags: an immutable
// push-front list, one element per group (almost always one).
type batchEpoch struct {
	nonce  string
	groups atomic.Pointer[batchGroup]
}

type batchGroup struct {
	k    groupKey
	tag  []byte
	next *batchGroup
}

// epochSeed keys the hash of nonce epochs. Nonces arrive off the wire,
// so the seed is per process and random.
var epochSeed = maphash.MakeSeed()

// findEpoch returns the table's entry for a nonce epoch, nil when it
// holds none.
func findEpoch(t *fifoTable[batchEpoch], h uint64, nonce []byte) *batchEpoch {
	for e := t.first(h); e != nil; e = e.next.Load() {
		// Comparing through an inline []byte→string conversion does not
		// allocate (compiler-recognized pattern).
		if e.hash == h && e.val.nonce == string(nonce) {
			return &e.val
		}
	}
	return nil
}

// tag returns the epoch's expected tag for group k.
func (e *batchEpoch) tag(k groupKey) ([]byte, bool) {
	for g := e.groups.Load(); g != nil; g = g.next {
		if g.k == k {
			return g.tag, true
		}
	}
	return nil, false
}

// lookup returns the expected tag cached for (nonce, k).
func (b *Batch) lookup(nonce []byte, k groupKey) ([]byte, bool) {
	if t := b.cache.Load(); t != nil {
		if e := findEpoch(t, maphash.Bytes(epochSeed, nonce), nonce); e != nil {
			return e.tag(k)
		}
	}
	return nil, false
}

// keyMemo memoizes the []byte→string conversion of the attestation
// key: a fleet shares one key, so the steady state is a bytes.Equal
// hit with zero allocations. The memo owns its copy — Verify is called
// with report views aliasing transport buffers, and nothing here may
// retain caller memory.
type keyMemo struct {
	str string
	b   []byte
}

type groupKey struct {
	key         string // attestation key (fleet devices usually share one)
	round       int
	shuffled    bool
	incremental bool
}

// BatchStats counts amortization effectiveness.
type BatchStats struct {
	Reports  uint64 // reports verified through the batch
	Computed uint64 // expected tags actually computed (one per group)
}

// NewBatch builds a batch verifier over an image handle — the single
// constructor the ImageSet registry plugs into.
func NewBatch(hash suite.HashID, img Image) *Batch {
	if img.IsZero() {
		panic("verifier: NewBatch over a zero Image")
	}
	return &Batch{hash: hash, img: img}
}

// Verify checks one report against the golden image under the given
// attestation key (used both to derive the traversal order and as the
// MAC key, mirroring the prover). Reports in the same group after the
// first cost one MAC comparison, no hashing, no locks, and no
// allocations. Safe for concurrent use.
func (b *Batch) Verify(key []byte, r *core.Report, shuffled bool) (bool, error) {
	return b.verify(key, r, shuffled, true)
}

// VerifyOnce is Verify for a report whose nonce cannot recur: the same
// checks against the same expected tag, computed every time and never
// cached (see the type comment). Counted in Stats like any other miss.
func (b *Batch) VerifyOnce(key []byte, r *core.Report, shuffled bool) (bool, error) {
	return b.verify(key, r, shuffled, false)
}

func (b *Batch) verify(key []byte, r *core.Report, shuffled, shared bool) (bool, error) {
	if err := b.img.checkGeometry(r); err != nil {
		return false, err
	}
	if r.RegionCount > 0 || r.Data != nil {
		return false, fmt.Errorf("verifier: region/data reports are not batchable")
	}
	var k groupKey
	if shared {
		km := b.key.Load()
		if km == nil || !bytes.Equal(key, km.b) {
			km = &keyMemo{str: string(key), b: append([]byte(nil), key...)}
			b.key.Store(km)
		}
		k = groupKey{key: km.str, round: r.Round, shuffled: shuffled, incremental: r.Incremental}
		if exp, ok := b.lookup(r.Nonce, k); ok {
			b.reports.Add(1)
			return ctEqual(exp, r.Tag), nil
		}
	}
	exp, err := b.img.ExpectedTag(suite.Scheme{Hash: b.hash, Key: key}, key, core.Options{Shuffled: shuffled}, r)
	if err != nil {
		return false, err
	}
	b.computed.Add(1)
	if shared {
		b.publish(r.Nonce, k, exp)
	}
	b.reports.Add(1)
	return ctEqual(exp, r.Tag), nil
}

// publish inserts (epoch, group) → tag: a new group is pushed onto its
// epoch's list, a new epoch is one table insert, which evicts past
// KeepEpochs. Neither copies anything the table already holds. Runs
// once per expected-tag computation — off every hit path.
func (b *Batch) publish(nonce []byte, k groupKey, exp []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.cache.Load()
	if t == nil {
		t = newFifoTable[batchEpoch](b.KeepEpochs)
		b.cache.Store(t)
	}
	h := maphash.Bytes(epochSeed, nonce)
	if e := findEpoch(t, h, nonce); e != nil {
		if _, dup := e.tag(k); !dup { // else a racing miss published it first
			e.groups.Store(&batchGroup{k: k, tag: exp, next: e.groups.Load()})
		}
		return
	}
	e := &fifoEntry[batchEpoch]{hash: h}
	e.val.nonce = string(nonce)
	e.val.groups.Store(&batchGroup{k: k, tag: exp})
	t.insert(e, b.KeepEpochs)
}

// Stats returns a snapshot of amortization counters.
func (b *Batch) Stats() BatchStats {
	return BatchStats{Reports: b.reports.Load(), Computed: b.computed.Load()}
}
