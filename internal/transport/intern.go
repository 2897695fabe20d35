package transport

import "sync"

// internTable deduplicates the small, hot string universe of the wire
// — peer names, mechanism IDs, scheme names. A fleet of a million
// provers sends each name thousands of times; interning makes the
// string allocation happen once per distinct name instead of once per
// frame, which is what lets DecodeFrameInto run at zero allocations
// per frame on the receive hot path.
//
// The table is append-only and process-global: entries are identities
// (a prover's name does not change meaning between frames), and the
// lookup is a read-lock plus one map probe — the compiler's
// map[string(b)] optimization makes the probe allocation-free. A soft
// cap bounds adversarial growth: past internCap distinct strings, new
// strings are returned as plain (uninterned) copies, so a flood of
// fabricated names costs the flooder per-frame allocations, not us
// unbounded memory.
//
// Each interned string also gets a dense ID, 1 for the first string
// interned, 2 for the next and so on; a string is never interned under
// a second ID, because nothing is ever removed. The receive dedup keys
// on that ID instead of the string (see dedup).
type internTable struct {
	mu  sync.RWMutex
	m   map[string]internEntry
	cap int // soft bound on distinct entries; <=0 means internCap
}

// internEntry is the canonical string and its ID.
type internEntry struct {
	s  string
	id uint32
}

// internCap is the soft bound on distinct interned strings. Generous
// enough for a million-prover fleet's names plus every mechanism and
// scheme identifier; small enough that a name-flooding adversary
// cannot grow the table without limit.
const internCap = 1 << 21

var interned = internTable{m: make(map[string]internEntry, 256)}

// get returns the canonical string for b and its ID, interning it on
// first sight. Whether interned or past-cap, the returned string is
// always a copy — it never aliases b, so callers may hand in views into
// a receive buffer that is about to be reused. The ID is 0 for the
// empty string and for a string refused past the cap.
func (t *internTable) get(b []byte) (string, uint32) {
	if len(b) == 0 {
		return "", 0
	}
	t.mu.RLock()
	e, ok := t.m[string(b)] // no-alloc map probe
	t.mu.RUnlock()
	if ok {
		return e.s, e.id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.m[string(b)]; ok {
		return e.s, e.id
	}
	max := t.cap
	if max <= 0 {
		max = internCap
	}
	if len(t.m) >= max {
		return string(b), 0
	}
	e = internEntry{s: string(b), id: uint32(len(t.m) + 1)}
	t.m[e.s] = e
	return e.s, e.id
}
