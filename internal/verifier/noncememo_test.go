package verifier

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"

	"saferatt/internal/core"
)

// TestNonceMemoMatchesPRF is the memo's oracle: over seeded random
// counters, enough of them to wrap the bound many times, what Nonce
// returns is byte for byte AppendErasmusNonce — on a miss, on a hit,
// and after the counter was evicted — and the table holds exactly the
// last keep distinct admissions, oldest first.
func TestNonceMemoMatchesPRF(t *testing.T) {
	const keep = 8
	key := []byte("nonce-memo-test-key")
	m := NewNonceMemo(key, keep)
	rng := rand.New(rand.NewPCG(13, 13))

	var admitted []uint64 // distinct, in admission order
	var scratch []byte
	check := func(ctr uint64) {
		t.Helper()
		want := core.AppendErasmusNonce(nil, key, ctr)
		tail := admitted[max(0, len(admitted)-keep):]
		got, hit := m.Nonce(scratch, ctr)
		if !bytes.Equal(got, want) {
			t.Fatalf("counter %d: memo %x, PRF %x (hit=%v)", ctr, got, want, hit)
		}
		if hit != slices.Contains(tail, ctr) {
			t.Fatalf("counter %d: hit=%v, admitted tail %v", ctr, hit, tail)
		}
		if !hit {
			scratch = got
		}
		if live := m.Counters(); !slices.Equal(live, tail) {
			t.Fatalf("memo holds %v, want the last %d admissions %v", live, keep, tail)
		}
	}
	for i := 0; i < 12*keep; i++ {
		ctr := rng.Uint64()
		if i%3 == 0 {
			ctr = uint64(i) // small counters too, the ones a fleet really uses
		}
		check(ctr) // cold
		m.Admit(ctr)
		admitted = append(admitted, ctr)
		check(ctr)   // warm
		m.Admit(ctr) // a second admission neither duplicates nor reorders
		check(admitted[rng.IntN(len(admitted))])
	}
	if got := m.Counters(); len(got) != keep {
		t.Fatalf("memo holds %d counters after %d admissions, bound %d", len(got), len(admitted), keep)
	}
}

// TestNonceMemoNeverInsertsOnLookup pins the admission rule at its
// source: looking a counter up, however often, leaves the table alone.
func TestNonceMemoNeverInsertsOnLookup(t *testing.T) {
	m := NewNonceMemo([]byte("k"), 4)
	m.Admit(7)
	for ctr := uint64(100); ctr < 200; ctr++ {
		if _, hit := m.Nonce(nil, ctr); hit {
			t.Fatalf("counter %d hit without being admitted", ctr)
		}
	}
	if got := m.Counters(); !slices.Equal(got, []uint64{7}) {
		t.Fatalf("lookups changed the memo: %v", got)
	}
	if _, hit := m.Nonce(nil, 7); !hit {
		t.Fatal("admitted counter missed")
	}
}
