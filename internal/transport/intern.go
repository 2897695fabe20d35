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
type internTable struct {
	mu  sync.RWMutex
	m   map[string]string
	cap int // soft bound on distinct entries; <=0 means internCap
}

// internCap is the soft bound on distinct interned strings. Generous
// enough for a million-prover fleet's names plus every mechanism and
// scheme identifier; small enough that a name-flooding adversary
// cannot grow the table without limit.
const internCap = 1 << 21

var interned = internTable{m: make(map[string]string, 256)}

// get returns the canonical string for b, interning it on first sight.
// Whether interned or past-cap, the returned string is always a copy
// — it never aliases b, so callers may hand in views into a receive
// buffer that is about to be reused.
func (t *internTable) get(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	t.mu.RLock()
	s, ok := t.m[string(b)] // no-alloc map probe
	t.mu.RUnlock()
	if ok {
		return s
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.m[string(b)]; ok {
		return s
	}
	max := t.cap
	if max <= 0 {
		max = internCap
	}
	if len(t.m) >= max {
		return string(b)
	}
	s = string(b)
	t.m[s] = s
	return s
}
