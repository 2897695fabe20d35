package verifier

import (
	"bytes"
	"errors"
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
// and performs no allocation. A caller judging a bundle goes through
// Tags, which interns the key once a bundle and counts the bundle's
// reports in one atomic add, so a hit costs one hash of the nonce, one
// chain probe and one tag compare. A report whose nonce came
// from a NonceMemo entry skips the probe too: the entry links to the
// group its nonce resolved to here (see links), so the steady ERASMUS
// report costs the memo probe and the two compares. Inserts (one per
// new (epoch, group), i.e. once per fleet-wide expected-tag
// computation) link one entry in under a writer mutex, whatever the
// table holds; concurrent misses on the same group may compute the tag
// redundantly, which is harmless and rare. Eviction is
// insertion-ordered and bounded by KeepEpochs (≤1 keeps the
// single-epoch behavior).
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
	id   uint64 // what a link is checked against (batchIDs)
	slot int    // which of a memo entry's links is this batch's (ImageSet picks it)

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
	// batch is the id of the Batch whose cache holds the group: a link
	// is checked against it. An id and not a pointer, so a memo entry
	// linking here pins the group's tag and key, not the batch's image
	// and table — a version retired past its grace is collected while
	// the memo still holds its links.
	batch uint64
	k     groupKey
	tag   []byte
	next  *batchGroup
}

// batchIDs numbers the batches NewBatch makes; 0 is no batch's.
var batchIDs atomic.Uint64

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

// group returns the epoch's group k, nil if it holds none.
func (e *batchEpoch) group(k groupKey) *batchGroup {
	for g := e.groups.Load(); g != nil; g = g.next {
		if g.k == k {
			return g
		}
	}
	return nil
}

// lookup returns the group cached for (nonce, k), nil if none is.
func (b *Batch) lookup(nonce []byte, k groupKey) *batchGroup {
	if t := b.cache.Load(); t != nil {
		if e := findEpoch(t, maphash.Bytes(epochSeed, nonce), nonce); e != nil {
			return e.group(k)
		}
	}
	return nil
}

// links are a NonceMemo entry's pointers into Batch caches: for each
// of a few batches, the group the entry's nonce resolved to there. They
// are an index, not a second cache: what a link points at is the group
// an epoch table holds (or held: an evicted group stays reachable from
// the entry, and stays right, since a tag is a pure function of its
// batch, nonce and group key). A batch uses the link its slot names. An
// ImageSet gives each name it adds the next slot, round robin, and a
// rotated name's new version the slot of the version it retires, so up
// to len(links) names that share counters keep every name on the fast
// path whatever was rotated. Past that, names share slots, and so do a
// retired version in its grace and its successor: a link leads to the
// batch that resolved the counter first, and the others take the probe.
// A hit is checked against the batch id and the group key, so a link
// made under another batch, round or key is a miss that takes the probe.
//
// Four is sized to the four images of rattd's multi-image overhead gate
// (TestServerVerifyMultiImageOverhead), not to a measured workload: the
// bench's named-image layer serves two images and inproc_mixed one.
// Every entry carries the 32 bytes, also in memos whose reports never
// reach a Batch.
type links [4]atomic.Pointer[batchGroup]

// linkTo points link at g if it points nowhere yet. A link is never
// moved: two batches sharing a slot would otherwise have the workers
// rewrite it back and forth; the one it does not lead to takes the
// probe.
func linkTo(link *atomic.Pointer[batchGroup], g *batchGroup) {
	if link != nil && link.Load() == nil {
		link.CompareAndSwap(nil, g)
	}
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
	return &Batch{hash: hash, img: img, id: batchIDs.Add(1)}
}

// Verify checks one report against the golden image under the given
// attestation key (used both to derive the traversal order and as the
// MAC key, mirroring the prover). Reports in the same group after the
// first cost one MAC comparison, no hashing, no locks, and no
// allocations. Safe for concurrent use.
func (b *Batch) Verify(key []byte, r *core.Report, shuffled bool) (bool, error) {
	return b.verifyOne(key, r, shuffled, true)
}

// VerifyOnce is Verify for a report whose nonce cannot recur: the same
// checks against the same expected tag, computed every time and never
// cached (see the type comment). Counted in Stats like any other miss.
func (b *Batch) VerifyOnce(key []byte, r *core.Report, shuffled bool) (bool, error) {
	return b.verifyOne(key, r, shuffled, false)
}

func (b *Batch) verifyOne(key []byte, r *core.Report, shuffled, shared bool) (bool, error) {
	ok, err := b.verify(key, b.internKey(key), r, shuffled, shared, nil)
	if err == nil {
		b.reports.Add(1)
	}
	return ok, err
}

// internKey returns the memo's string for key, replacing the memo when
// key is another.
func (b *Batch) internKey(key []byte) string {
	km := b.key.Load()
	if km == nil || !bytes.Equal(key, km.b) {
		km = &keyMemo{str: string(key), b: append([]byte(nil), key...)}
		b.key.Store(km)
	}
	return km.str
}

// errNotBatchable refuses a report whose regions or data blocks make
// its expected tag its own.
var errNotBatchable = errors.New("verifier: region/data reports are not batchable")

// verify checks r under key, whose interned string is kstr. ls, if not
// nil, are the links of the memo entry whose nonce r carries: a group
// this batch's link leads to is used without the probe, and the group
// the probe finds or publish makes is linked from it. A link does not
// look at the nonce, so handing one over for a report that carries
// another would check it against the wrong tag; Judge hands one over
// only once the nonce rule has matched r's nonce to the entry's. A nil
// error means r was verified through the batch and is the caller's to
// count in b.reports.
func (b *Batch) verify(key []byte, kstr string, r *core.Report, shuffled, shared bool, ls *links) (bool, error) {
	if err := b.img.checkGeometry(r); err != nil {
		return false, err
	}
	if r.RegionCount > 0 || r.Data != nil {
		return false, errNotBatchable
	}
	k := groupKey{key: kstr, round: r.Round, shuffled: shuffled, incremental: r.Incremental}
	var link *atomic.Pointer[batchGroup]
	if ls != nil {
		link = &ls[b.slot]
	}
	if shared {
		if link != nil {
			if g := link.Load(); g != nil && g.batch == b.id && g.k == k {
				return ctEqual(g.tag, r.Tag), nil
			}
		}
		if g := b.lookup(r.Nonce, k); g != nil {
			linkTo(link, g)
			return ctEqual(g.tag, r.Tag), nil
		}
	}
	exp, err := b.img.ExpectedTag(suite.Scheme{Hash: b.hash, Key: key}, key, core.Options{Shuffled: shuffled}, r)
	if err != nil {
		return false, err
	}
	b.computed.Add(1)
	if shared {
		linkTo(link, b.publish(r.Nonce, k, exp))
	}
	return ctEqual(exp, r.Tag), nil
}

// publish inserts (epoch, group) → tag and returns the group: a new
// group is pushed onto its epoch's list, a new epoch is one table
// insert, which evicts past KeepEpochs. Neither copies anything the
// table already holds. Runs once per expected-tag computation — off
// every hit path.
func (b *Batch) publish(nonce []byte, k groupKey, exp []byte) *batchGroup {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.cache.Load()
	if t == nil {
		t = newFifoTable[batchEpoch](b.KeepEpochs)
		b.cache.Store(t)
	}
	h := maphash.Bytes(epochSeed, nonce)
	if e := findEpoch(t, h, nonce); e != nil {
		g := e.group(k)
		if g == nil { // else a racing miss published it first
			g = &batchGroup{batch: b.id, k: k, tag: exp, next: e.groups.Load()}
			e.groups.Store(g)
		}
		return g
	}
	e := &fifoEntry[batchEpoch]{hash: h}
	e.val.nonce = string(nonce)
	g := &batchGroup{batch: b.id, k: k, tag: exp}
	e.val.groups.Store(g)
	t.insert(e, b.KeepEpochs)
	return g
}

// Stats returns a snapshot of amortization counters.
func (b *Batch) Stats() BatchStats {
	return BatchStats{Reports: b.reports.Load(), Computed: b.computed.Load()}
}
