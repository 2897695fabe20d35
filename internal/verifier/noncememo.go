package verifier

import (
	"sync"
	"sync/atomic"

	"saferatt/internal/core"
)

// NonceMemo memoises core.AppendErasmusNonce. The ERASMUS self-measurement
// nonce is a PRF of (K, counter) and a fleet shares K, so — like the
// expected tag Batch caches — it is one value per counter for the whole
// fleet, and a verifier ingesting that fleet's collections would
// otherwise pay one HMAC per report to re-derive it.
//
// It has Batch's cache shape: the counter→nonce table is an immutable
// value behind an atomic pointer, so Nonce's hit path takes no lock and
// allocates nothing; Admit copy-on-writes the table under a writer
// mutex and evicts in insertion order past the bound.
//
// Two properties make it safe to put in front of Freshness.CheckErasmus.
// A table value is only ever written by Admit from core.AppendErasmusNonce
// itself, so a hit is byte-identical to what a miss would have derived:
// the memo cannot change a verdict. And Nonce never inserts — the caller
// admits a counter only after a report carrying it was accepted (nonce,
// window, tag and commit all passed) — so counters picked by a sender
// who cannot produce a valid tag neither enter the table nor evict the
// fleet's; each such report costs the one PRF it cost without the memo.
type NonceMemo struct {
	key  []byte
	keep int

	tab atomic.Pointer[nonceTable] // immutable counter→nonce table
	mu  sync.Mutex                 // serializes copy-on-write publication
}

// nonceTable is one published generation of the memo; immutable.
type nonceTable struct {
	nonces map[uint64][]byte
	order  []uint64 // insertion order, for eviction
}

// NewNonceMemo returns an empty memo of the ERASMUS nonces under key,
// holding at most keep counters (less than one means one). It owns a
// copy of key.
func NewNonceMemo(key []byte, keep int) *NonceMemo {
	if keep < 1 {
		keep = 1
	}
	m := &NonceMemo{key: append([]byte(nil), key...), keep: keep}
	m.tab.Store(&nonceTable{})
	return m
}

// Nonce returns core.AppendErasmusNonce(dst[:0], key, ctr). On a hit the
// result is the memo's own copy — shared and read-only — and dst is
// untouched; on a miss it is derived into dst, so a caller that keeps
// the returned slice as its next dst allocates nothing either way.
func (m *NonceMemo) Nonce(dst []byte, ctr uint64) (nonce []byte, hit bool) {
	if n, ok := m.tab.Load().nonces[ctr]; ok {
		return n, true
	}
	return core.AppendErasmusNonce(dst[:0], m.key, ctr), false
}

// Admit publishes ctr's nonce to later Nonce calls. Call it for a
// counter whose report was accepted and whose Nonce call missed; a
// counter already present is left alone, so racing admissions of one
// counter are harmless.
func (m *NonceMemo) Admit(ctr uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.tab.Load()
	if _, dup := old.nonces[ctr]; dup {
		return
	}
	next := &nonceTable{
		nonces: make(map[uint64][]byte, len(old.nonces)+1),
		order:  make([]uint64, 0, len(old.order)+1),
	}
	for c, n := range old.nonces {
		next.nonces[c] = n
	}
	next.order = append(next.order, old.order...)
	next.nonces[ctr] = core.AppendErasmusNonce(nil, m.key, ctr)
	next.order = append(next.order, ctr)
	for len(next.order) > m.keep {
		delete(next.nonces, next.order[0])
		next.order = next.order[1:]
	}
	m.tab.Store(next)
}

// Counters returns the memoised counters, oldest admission first
// (diagnostics and tests).
func (m *NonceMemo) Counters() []uint64 {
	return append([]uint64(nil), m.tab.Load().order...)
}
