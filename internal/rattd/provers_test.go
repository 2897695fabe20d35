package rattd

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"
)

// get returns the server's record for name, nil if it holds none.
// Caller holds the lock of name's stripe.
func (s *Server) get(name string) *proverRec {
	st, h := s.stripeHash(name)
	r, _ := st.lookup(name, h)
	return r
}

// TestProverSlotHashIsSeeded pins which half of a prover's filing is
// seeded. Its slot in the stripe's table comes from a hash seeded per
// server: names arrive off the wire before anything about them
// verifies, and a fixed hash would let a sender pick names that share
// one probe run. Its stripe does not: a prover sits on the same stripe
// of every server with as many stripes, so equal state writes equal
// checkpoint bytes.
func TestProverSlotHashIsSeeded(t *testing.T) {
	a, b := localServer(t, Config{Stripes: 8}), localServer(t, Config{Stripes: 8})
	same := 0
	for i := range 16 {
		name := fmt.Sprintf("prv%07d", i)
		sa, ha := a.stripeHash(name)
		sb, hb := b.stripeHash(name)
		if slices.Index(a.stripes, sa) != slices.Index(b.stripes, sb) {
			t.Fatalf("%q sits on different stripes of two 8-stripe servers", name)
		}
		if ha>>32 == hb>>32 {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("%d of 16 names share their slot hash on two servers: the hash is not seeded", same)
	}
}

// TestProverRecSize pins what a prover's record costs its stripe: 72
// bytes — the name, the 48-byte verifier.Freshness, the image index,
// and the flags beside the dirty generation.
func TestProverRecSize(t *testing.T) {
	if got := unsafe.Sizeof(proverEntry{}); got > 72 {
		t.Fatalf("a prover's entry is %d bytes, want <= 72", got)
	}
}

// TestProverTableGenerationWrap pins that the 30-bit dirty generation
// restamps rather than wraps: a record stamped in generation 1 and left
// untouched while every other generation goes by reads dirty, not
// clean, when generation 1 comes round again, and keeps its flags.
func TestProverTableGenerationWrap(t *testing.T) {
	tb := newProverTable()
	i := tb.Add("p", 1)
	r := &tb.At(i).Val
	r.state |= recWin
	if !tb.markDirty(r, i) || tb.markDirty(r, i) {
		t.Fatal("first touch not listed once")
	}
	tb.nextGen()
	tb.gen = genMask // as if 2^30 - 3 more checkpoints went by without p
	tb.nextGen()
	if tb.gen != 1 || len(tb.dirty) != 0 {
		t.Fatalf("after the last generation: gen %d, %d dirty", tb.gen, len(tb.dirty))
	}
	if !tb.markDirty(r, i) {
		t.Fatal("a record stamped in generation 1 reads clean when generation 1 comes round again")
	}
	if !r.has(recWin) || r.has(recSeed) {
		t.Fatalf("restamping changed the flags: state %#x", r.state)
	}
}
