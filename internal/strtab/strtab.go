// Package strtab is the one string-keyed table under the daemon and the
// transport: an append-only map from strings to dense IDs, each string
// kept beside a value of the owner's type. rattd files each stripe's
// prover records in one, the transport its wire names and tokens, and
// each transport.Local the names bound on it with their handlers.
//
// IDs are 1-based: the first string added gets 1, the next 2, and 0
// means absent. Nothing is ever removed, so a string never gets a
// second ID. Entries are filed by value, in ID order, into chunks of
// 256 that never move, so a pointer to an entry stays valid for the
// table's life.
//
// A string is found through an open-addressing index of 8-byte words:
// the high half of a word is the high 32 bits of the string's hash, the
// low half its ID, and 0 is an empty slot. A probe starts at the slot
// the hash's high half names, steps linearly, and compares the hash half
// before the string; only the string decides a match. Past ¾ load the
// index doubles by moving its words, so growing it hashes no string
// again.
//
// The owner supplies every hash and keeps the seed it hashes under.
// Keys come off the wire before anything about them verifies, so the
// hash must be seeded: one a sender could compute would let them pick
// strings that share one probe run. A Table takes no lock; its owner
// holds whichever one guards it.
package strtab

// Entry is one string a table holds and the value kept beside it. The
// value comes first: Go pads a struct that ends in a zero-size field,
// so a table whose value is struct{} keeps 16 bytes a string.
type Entry[V any] struct {
	Val V
	Key string
}

const (
	chunkBits = 8
	chunkLen  = 1 << chunkBits
)

// Table is a string table. The zero Table is empty and ready to use.
type Table[V any] struct {
	chunks []*[chunkLen]Entry[V] // ID i is chunks[(i-1)>>chunkBits][(i-1)&(chunkLen-1)]
	n      uint32                // strings held, which is the last ID given
	index  []uint64
}

// Len returns the number of strings t holds, which is the last ID given.
func (t *Table[V]) Len() uint32 { return t.n }

// At returns the entry with ID id (1 <= id <= t.Len()).
func (t *Table[V]) At(id uint32) *Entry[V] {
	return &t.chunks[(id-1)>>chunkBits][(id-1)&(chunkLen-1)]
}

// Holds reports whether ID id names key: the check that makes an ID a
// caller kept since an earlier Find safe to use in its place. It costs
// one entry read and a string compare, usually pointer-equal, and no
// hash; any id, 0 and IDs past t.Len() among them, is a valid argument.
func (t *Table[V]) Holds(id uint32, key string) bool {
	return id != 0 && id <= t.n && t.At(id).Key == key
}

// Find returns the ID of key, filed under its hash h; 0 if t does not
// hold it.
func (t *Table[V]) Find(key string, h uint64) uint32 {
	if len(t.index) == 0 {
		return 0
	}
	hi, mask := h>>32, uint64(len(t.index)-1)
	for s := hi & mask; ; s = (s + 1) & mask {
		w := t.index[s]
		if w == 0 {
			return 0
		}
		if w>>32 == hi && t.At(uint32(w)).Key == key {
			return uint32(w)
		}
	}
}

// Add files key, which t must not hold, under its hash h and the next
// ID, beside a zero value, and returns the ID.
func (t *Table[V]) Add(key string, h uint64) uint32 {
	if t.n&(chunkLen-1) == 0 {
		t.chunks = append(t.chunks, new([chunkLen]Entry[V]))
	}
	t.n++
	t.At(t.n).Key = key
	if 4*uint64(t.n) > 3*uint64(len(t.index)) {
		t.grow()
	}
	t.place(h>>32<<32 | uint64(t.n))
	return t.n
}

// grow doubles the index, from 16 words, moving every word to its slot
// in the new one.
func (t *Table[V]) grow() {
	old := t.index
	t.index = make([]uint64, max(16, 2*len(old)))
	for _, w := range old {
		if w != 0 {
			t.place(w)
		}
	}
}

// place puts index word w in the first free slot from its home.
func (t *Table[V]) place(w uint64) {
	mask := uint64(len(t.index) - 1)
	s := w >> 32 & mask
	for t.index[s] != 0 {
		s = (s + 1) & mask
	}
	t.index[s] = w
}
