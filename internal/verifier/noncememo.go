package verifier

import (
	"sync"

	"saferatt/internal/core"
)

// NonceMemo memoises core.AppendErasmusNonce. The ERASMUS self-measurement
// nonce is a PRF of (K, counter) and a fleet shares K, so — like the
// expected tag Batch caches — it is one value per counter for the whole
// fleet, and a verifier ingesting that fleet's collections would
// otherwise pay one HMAC per report to re-derive it.
//
// It has Batch's cache shape, a fifoTable: Nonce's hit path takes no
// lock and allocates nothing; Admit links one entry in under a writer
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

	tab *fifoTable[memoNonce] // counter→nonce
	mu  sync.Mutex            // serializes admissions
}

type memoNonce struct {
	ctr   uint64
	nonce []byte
	links links // the tag-cache groups nonce resolved to (Batch's links)
}

// hashCounter spreads consecutive counters over the table's chains
// (Fibonacci hashing; the table masks the low bits).
func hashCounter(ctr uint64) uint64 {
	h := ctr * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// NewNonceMemo returns an empty memo of the ERASMUS nonces under key,
// holding at most keep counters (less than one means one). It owns a
// copy of key.
func NewNonceMemo(key []byte, keep int) *NonceMemo {
	return &NonceMemo{key: append([]byte(nil), key...), keep: keep, tab: newFifoTable[memoNonce](keep)}
}

// Nonce returns core.AppendErasmusNonce(dst[:0], key, ctr). On a hit the
// result is the memo's own copy — shared and read-only — and dst is
// untouched; on a miss it is derived into dst, so a caller that keeps
// the returned slice as its next dst allocates nothing either way.
func (m *NonceMemo) Nonce(dst []byte, ctr uint64) (nonce []byte, hit bool) {
	if e := m.find(ctr); e != nil {
		return e.nonce, true
	}
	return core.AppendErasmusNonce(dst[:0], m.key, ctr), false
}

func (m *NonceMemo) find(ctr uint64) *memoNonce {
	for e := m.tab.first(hashCounter(ctr)); e != nil; e = e.next.Load() {
		if e.val.ctr == ctr {
			return &e.val
		}
	}
	return nil
}

// Admit publishes ctr's nonce to later Nonce calls. Call it for a
// counter whose report was accepted and whose Nonce call missed; a
// counter already present is left alone, so racing admissions of one
// counter are harmless.
func (m *NonceMemo) Admit(ctr uint64) {
	if m.find(ctr) != nil {
		return // the usual case when a fleet reports one counter: no lock
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.find(ctr) != nil {
		return
	}
	e := &fifoEntry[memoNonce]{hash: hashCounter(ctr)}
	e.val.ctr = ctr
	e.val.nonce = core.AppendErasmusNonce(nil, m.key, ctr)
	m.tab.insert(e, m.keep)
}

// Counters returns the memoised counters, oldest admission first
// (diagnostics and tests).
func (m *NonceMemo) Counters() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []uint64
	m.tab.each(func(e *memoNonce) { out = append(out, e.ctr) })
	return out
}
