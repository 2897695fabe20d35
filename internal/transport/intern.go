package transport

import (
	"hash/maphash"
	"sync"
	"unsafe"

	"saferatt/internal/strtab"
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
// Each interned string gets the dense ID its strtab.Table gives it, 1
// for the first. The ID is what the rest of the transport keys a name
// on: the receive dedup (see dedup) and Net's routes. The hash is
// maphash under a seed each table draws for itself.
type internTable struct {
	mu sync.RWMutex
	strtab.Table[struct{}]
	seed maphash.Seed
	cap  uint32 // most strings the table holds
}

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
	interned = newInternTable(internCap) // peer names: From and To
	tokens   = newInternTable(tokenCap)  // mechanism, scheme and image ids
)

// newInternTable returns an empty table holding at most max strings.
func newInternTable(max uint32) *internTable {
	return &internTable{seed: maphash.MakeSeed(), cap: max}
}

// lookup returns s's ID, 0 if the table does not hold it. It never
// inserts.
func (t *internTable) lookup(s string) uint32 {
	h := maphash.String(t.seed, s)
	t.mu.RLock()
	id := t.Find(s, h)
	t.mu.RUnlock()
	return id
}

// get returns the canonical string for b and its ID, interning it on
// first sight. Whether interned or past-cap, the returned string is
// always a copy — it never aliases b, so callers may hand in views into
// a receive buffer that is about to be reused. The ID is 0 for the
// empty string and for a string refused past the cap.
func (t *internTable) get(b []byte) (string, uint32) {
	if len(b) == 0 {
		return "", 0
	}
	// A view of b, only for hashing and comparing: it never leaves get.
	v := unsafe.String(unsafe.SliceData(b), len(b))
	h := maphash.String(t.seed, v)
	t.mu.RLock()
	if id := t.Find(v, h); id != 0 {
		s := t.At(id).Key
		t.mu.RUnlock()
		return s, id
	}
	t.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if id := t.Find(v, h); id != 0 {
		return t.At(id).Key, id
	}
	s := string(b)
	if t.Len() >= t.cap {
		return s, 0
	}
	return s, t.Add(s, h)
}
