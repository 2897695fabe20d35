package verifier

import "sync"

// Bounded ERASMUS replay protection, shared by both verifier stacks.
// Remembering every accepted measurement counter per prover in a
// map[uint64]bool is exact but O(reports) memory forever, which makes
// a million-prover fleet ingesting measurements for months infeasible.
// DedupWindow is the classic anti-replay shape (IPsec/DTLS sliding
// window): a high watermark plus a fixed bitmap over the counters
// trailing it.
//
// Semantics: a counter is "seen" if its bit is set, or if it has fallen
// off the back of the window (more than DedupBits behind the highest
// accepted counter). The second clause is the one deliberate
// sharpening versus the exact map — a counter that old is rejected as
// a replay even if it was in fact never accepted. ERASMUS provers
// advance their counter monotonically (§3.3), so an honest report can
// only trail the watermark by the collection depth (2–8 in every
// experiment), never by hundreds; anything further behind is an
// attacker replaying history or a device so far desynchronized that
// re-enrollment is the right answer anyway. In exchange, per-prover
// freshness state becomes O(1): one uint64 plus DedupWords words,
// regardless of how many reports the prover ever filed.
type DedupWindow struct {
	// Top is the highest accepted counter (the watermark).
	Top uint64
	// Bits is a ring bitmap over the counters (Top-DedupBits, Top],
	// indexed by counter mod DedupBits. Positions outside that range
	// are kept zero (the canonical form the checkpoint codec relies
	// on for equal-state ⇒ equal-bytes).
	Bits [DedupWords]uint64
}

const (
	// DedupWords sizes the window bitmap; DedupBits counters are
	// tracked exactly behind the watermark.
	DedupWords = 4
	DedupBits  = DedupWords * 64
)

func dedupBitOf(c uint64) (int, uint64) {
	i := c % DedupBits
	return int(i >> 6), 1 << (i & 63)
}

// Seen reports whether counter c would be rejected as a replay.
func (w *DedupWindow) Seen(c uint64) bool {
	if c > w.Top {
		return false
	}
	if w.Top-c >= DedupBits {
		return true // fell off the back of the window
	}
	word, bit := dedupBitOf(c)
	return w.Bits[word]&bit != 0
}

// Add consumes counter c, returning false if it was already seen (the
// replay case — the window is unchanged). Counters above the watermark
// slide the window forward, zeroing the positions that enter it.
func (w *DedupWindow) Add(c uint64) bool {
	if c > w.Top {
		if c-w.Top >= DedupBits {
			w.Bits = [DedupWords]uint64{}
		} else {
			for x := w.Top + 1; x < c; x++ {
				word, bit := dedupBitOf(x)
				w.Bits[word] &^= bit
			}
		}
		word, bit := dedupBitOf(c)
		w.Bits[word] |= bit
		w.Top = c
		return true
	}
	if w.Seen(c) {
		return false
	}
	word, bit := dedupBitOf(c)
	w.Bits[word] |= bit
	return true
}

// Counters returns the exactly-tracked seen counters in ascending
// order (diagnostics; the implicit below-window tail is not
// materialized).
func (w *DedupWindow) Counters() []uint64 {
	var out []uint64
	lo := uint64(0)
	if w.Top >= DedupBits {
		lo = w.Top - DedupBits + 1
	}
	for c := lo; ; c++ {
		word, bit := dedupBitOf(c)
		if w.Bits[word]&bit != 0 {
			out = append(out, c)
		}
		if c == w.Top { // inclusive bound; also guards uint64 wrap
			break
		}
	}
	return out
}

// ChallengeBits is W, how many of the latest SMART challenges a
// ChallengeWindow keeps redeemable.
const ChallengeBits = 1 << 16

// ChallengeWindow issues challenge sequence numbers 1, 2, 3, … and
// redeems each of the last ChallengeBits issued at most once: the IPsec
// anti-replay ring (RFC 4303 §3.4.3), one bit a seq, in 8 KiB. Issuing a
// seq clears its slot, so no timer or sweep reuses one. Safe for
// concurrent use.
type ChallengeWindow struct {
	mu   sync.Mutex
	top  uint64 // the last seq issued
	bits [ChallengeBits / 64]uint64
}

// Issue returns the next sequence number.
func (w *ChallengeWindow) Issue() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.top++
	w.bits[w.top%ChallengeBits/64] &^= 1 << (w.top % 64)
	return w.top
}

// Redeem consumes seq: false if it was never issued, has slid out of
// the window, or was redeemed already.
func (w *ChallengeWindow) Redeem(seq uint64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	word, bit := &w.bits[seq%ChallengeBits/64], uint64(1)<<(seq%64)
	if seq == 0 || seq > w.top || w.top-seq >= ChallengeBits || *word&bit != 0 {
		return false
	}
	*word |= bit
	return true
}
