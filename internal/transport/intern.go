package transport

import (
	"hash/maphash"
	"sync"
	"unsafe"
)

// internTable deduplicates the small, hot string universe of the wire.
// A fleet of a million provers sends each name thousands of times;
// interning makes the string allocation happen once per distinct name
// instead of once per frame, which is what lets DecodeFrameInto run at
// zero allocations per frame on the receive hot path.
//
// The wire's tables are append-only and process-global: entries are
// identities (a prover's name does not change meaning between frames),
// and the lookup is a read-lock plus one index probe. A cap bounds
// adversarial growth: past it, new strings are returned as plain
// (uninterned) copies, so a flood of fabricated names costs the flooder
// per-frame allocations, not us unbounded memory.
//
// Each interned string gets a dense ID, 1 for the first string interned,
// 2 for the next and so on; a string is never interned under a second
// ID, because nothing is ever removed. The ID is what the rest of the
// transport keys a name on: the receive dedup (see dedup) and Net's
// routes. Each Local keeps a table of its own, of the names bound on it,
// whose value of type V is a name's handler (the wire's tables keep
// struct{}).
//
// Strings are filed by value, each beside its value, in ID order, into
// chunks of internChunkLen that never move. A string is found through
// index, an open-addressing table of 8-byte words: the high half of a
// word is the high 32 bits of the string's hash, the low half its ID,
// and 0 is an empty slot. A probe starts at the slot the hash's high
// bits name, steps linearly, and compares the hash half before the
// string. Past ¾ load the index doubles by moving the words, so growing
// it hashes no string again. The hash is maphash under a per-table seed: strings
// come off the wire, and a sender must not be able to choose ones that
// share a probe run.
type internTable[V any] struct {
	mu     sync.RWMutex
	chunks []*[internChunkLen]filed[V] // ID i is chunks[(i-1)>>internChunkBits][(i-1)&(internChunkLen-1)]
	n      uint32                      // strings held, which is the last ID given
	index  []uint64
	seed   maphash.Seed
	cap    uint32 // most strings the table holds
}

// filed is one string a table holds and the value kept beside it. The
// value comes first: Go pads a struct that ends in a zero-size field,
// so the wire's tables, whose value is struct{}, keep 16 bytes a string.
type filed[V any] struct {
	val V
	s   string
}

// Strings are filed in chunks of 256 (4 KiB of string headers in the
// wire's tables).
const (
	internChunkBits = 8
	internChunkLen  = 1 << internChunkBits
)

// internCap bounds the name table. Generous enough for a million-prover
// fleet's names; small enough that a name-flooding adversary cannot
// grow the table without limit.
const internCap = 1 << 21

// tokenCap bounds the token table: the mechanism, scheme and image-id
// strings reports and frames carry. A deployment speaks a handful of
// each, so a sender making them up fills this table, not the name
// table, whose IDs size every Net's routes.
const tokenCap = 1 << 10

var (
	interned = newInternTable[struct{}](internCap) // peer names: From and To
	tokens   = newInternTable[struct{}](tokenCap)  // mechanism, scheme and image ids
)

// newInternTable returns an empty table holding at most max strings.
// Its index starts at 16 words, so a probe never meets an index with no
// slots.
func newInternTable[V any](max uint32) *internTable[V] {
	return &internTable[V]{index: make([]uint64, 16), seed: maphash.MakeSeed(), cap: max}
}

// at returns the slot of the string with ID id (1 <= id <= t.n).
func (t *internTable[V]) at(id uint32) *filed[V] {
	return &t.chunks[(id-1)>>internChunkBits][(id-1)&(internChunkLen-1)]
}

// find returns the ID of s, filed under its hash h; 0 if the table does
// not hold it. Callers hold mu.
func (t *internTable[V]) find(s string, h uint64) uint32 {
	hi, mask := h>>32, uint64(len(t.index)-1)
	for i := hi & mask; ; i = (i + 1) & mask {
		w := t.index[i]
		if w == 0 {
			return 0
		}
		if w>>32 == hi && t.at(uint32(w)).s == s {
			return uint32(w)
		}
	}
}

// lookup returns s's ID, 0 if the table does not hold it. It never
// inserts.
func (t *internTable[V]) lookup(s string) uint32 {
	h := maphash.String(t.seed, s)
	t.mu.RLock()
	id := t.find(s, h)
	t.mu.RUnlock()
	return id
}

// get returns the canonical string for b and its ID, interning it on
// first sight. Whether interned or past-cap, the returned string is
// always a copy — it never aliases b, so callers may hand in views into
// a receive buffer that is about to be reused. The ID is 0 for the
// empty string and for a string refused past the cap.
func (t *internTable[V]) get(b []byte) (string, uint32) {
	if len(b) == 0 {
		return "", 0
	}
	// A view of b, only for hashing and comparing: it never leaves get.
	v := unsafe.String(unsafe.SliceData(b), len(b))
	h := maphash.String(t.seed, v)
	t.mu.RLock()
	id := t.find(v, h)
	if id != 0 {
		s := t.at(id).s
		t.mu.RUnlock()
		return s, id
	}
	t.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if id := t.find(v, h); id != 0 {
		return t.at(id).s, id
	}
	if t.n >= t.cap {
		return string(b), 0
	}
	return t.add(string(b), h)
}

// add files s, which the table must not hold, under its hash h and the
// next ID, beside a zero value. Callers hold mu for writing.
func (t *internTable[V]) add(s string, h uint64) (string, uint32) {
	if t.n&(internChunkLen-1) == 0 {
		t.chunks = append(t.chunks, new([internChunkLen]filed[V]))
	}
	t.n++
	id := t.n
	t.at(id).s = s
	if 4*uint64(t.n) > 3*uint64(len(t.index)) {
		t.grow()
	}
	t.place(h>>32<<32 | uint64(id))
	return s, id
}

// grow doubles the index, moving every word to its slot in the new one.
func (t *internTable[V]) grow() {
	old := t.index
	t.index = make([]uint64, 2*len(old))
	for _, w := range old {
		if w != 0 {
			t.place(w)
		}
	}
}

// place puts index word w in the first free slot from its home.
func (t *internTable[V]) place(w uint64) {
	mask := uint64(len(t.index) - 1)
	i := w >> 32 & mask
	for t.index[i] != 0 {
		i = (i + 1) & mask
	}
	t.index[i] = w
}
