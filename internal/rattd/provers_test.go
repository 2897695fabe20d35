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
// and its state bits.
func TestProverRecSize(t *testing.T) {
	if got := unsafe.Sizeof(proverEntry{}); got > 72 {
		t.Fatalf("a prover's entry is %d bytes, want <= 72", got)
	}
}
