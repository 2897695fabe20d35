package verifier

import (
	"math/bits"
	"sync/atomic"
)

// fifoTable is the table behind Batch's expected tags and NonceMemo's
// nonces: hash → entry with lock-free, allocation-free lookups, O(1)
// inserts and insertion-ordered eviction.
//
// The shape is a fixed array of hash chains. A reader loads a chain
// head and follows next pointers, matching entries itself (the table
// knows hashes, not keys):
//
//	for e := t.first(h); e != nil; e = e.next.Load() {
//		if e.hash == h && e.val ... { hit }
//	}
//
// One writer at a time — the owner's mutex — pushes a fully built entry
// at its chain's head and unlinks the oldest entry by swinging the
// pointer that leads to it. An unlinked entry keeps its own next
// pointer, so a reader standing on it walks on into the live chain;
// the garbage collector frees it when the last such reader leaves. What
// a reader can observe is therefore an entry a moment after its
// eviction, never a torn one; both users store pure functions of the
// key, so a late hit is still the right value.
type fifoTable[V any] struct {
	chains []atomic.Pointer[fifoEntry[V]] // fixed at construction
	mask   uint64

	// Writer side, under the owner's mutex: the entries in insertion
	// order, threaded through fifoEntry.newer.
	oldest, newest *fifoEntry[V]
	n              int
}

// fifoEntry is one entry. hash and val are set before the entry is
// published and not written again (val may hold atomics of its own).
type fifoEntry[V any] struct {
	hash  uint64
	val   V
	next  atomic.Pointer[fifoEntry[V]] // hash chain
	newer *fifoEntry[V]                // insertion order; writer only
}

// newFifoTable sizes the chain array for about keep entries at a load
// of one half. Holding more only lengthens the chains.
func newFifoTable[V any](keep int) *fifoTable[V] {
	n := 1 << bits.Len(uint(max(2*keep, 8)-1))
	return &fifoTable[V]{chains: make([]atomic.Pointer[fifoEntry[V]], n), mask: uint64(n - 1)}
}

// first returns the head of the chain entries hashing to h are on.
func (t *fifoTable[V]) first(h uint64) *fifoEntry[V] {
	return t.chains[h&t.mask].Load()
}

// insert publishes e, whose hash and val the caller has filled in, and
// then evicts oldest-first down to keep entries. Writer only.
func (t *fifoTable[V]) insert(e *fifoEntry[V], keep int) {
	head := &t.chains[e.hash&t.mask]
	e.next.Store(head.Load())
	head.Store(e)
	if t.newest != nil {
		t.newest.newer = e
	} else {
		t.oldest = e
	}
	t.newest = e
	t.n++
	for t.n > max(keep, 1) {
		t.evictOldest()
	}
}

// evictOldest unlinks the oldest entry from its chain.
func (t *fifoTable[V]) evictOldest() {
	v := t.oldest
	link := &t.chains[v.hash&t.mask]
	for link.Load() != v {
		link = &link.Load().next
	}
	link.Store(v.next.Load())
	if t.oldest = v.newer; t.oldest == nil {
		t.newest = nil
	}
	t.n--
}

// each calls f on every entry, oldest first. Writer only.
func (t *fifoTable[V]) each(f func(*V)) {
	for e := t.oldest; e != nil; e = e.newer {
		f(&e.val)
	}
}
