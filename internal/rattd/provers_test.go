package rattd

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"unsafe"
)

// get returns the server's record for name, nil if it holds none.
// Caller holds the lock of name's stripe.
func (s *Server) get(name string) *proverRec {
	st, h := s.stripeHash(name)
	r, _ := st.provers.find(name, h)
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
	if got := unsafe.Sizeof(proverRec{}); got > 72 {
		t.Fatalf("proverRec is %d bytes, want <= 72", got)
	}
}

// TestProverTableMatchesMap drives a table and a map model through one
// seeded sequence of finds and get-or-adds, walking the table every
// 50 000 steps. Names are filed four to a hash half, so probes keep
// meeting words whose hash half matches and whose name does not, and the
// index doubles a dozen times on the way. A name is found exactly when
// it was added, at the index it was added under; a walk visits every
// record once; a name sharing an added name's hash is not found; and a
// record pointer taken first still addresses the same name and the same
// Freshness after 100 000 further adds.
func TestProverTableMatchesMap(t *testing.T) {
	const keys, ops = 400_000, 300_000
	hashOf := func(k int) uint64 { return mix64(uint64(k/4))&^0xffffffff | uint64(k) }
	nameOf := func(k int) string { return fmt.Sprintf("p%06d", k) }

	const anchorHash = 0xa5a5a5a5_5a5a5a5a
	tb := newProverTable()
	anchor, ai := tb.add("anchor", anchorHash)
	if ai != 0 {
		t.Fatalf("first add at %d", ai)
	}
	anchor.fresh.Window.Add(7)
	anchor.fresh.SeedLast = 42
	want := anchor.fresh
	model := map[string]int{"anchor": 0}

	walk := func(op int) {
		if int(tb.n) != len(model) {
			t.Fatalf("op %d: table holds %d records, model %d", op, tb.n, len(model))
		}
		for i := range tb.n {
			if r := tb.at(i); model[r.name] != int(i) {
				t.Fatalf("op %d: walk meets %q at %d, model has it at %d", op, r.name, i, model[r.name])
			}
		}
	}
	rng := rand.New(rand.NewPCG(27, 27))
	adds := 0
	for op := 0; op < ops; op++ {
		k := rng.IntN(keys)
		name, h := nameOf(k), hashOf(k)
		at, in := model[name]
		if rng.IntN(3) == 0 {
			r, i := tb.find(name, h)
			if (r != nil) != in || in && (int(i) != at || r.name != name) {
				t.Fatalf("op %d: find(%q) = %v at %d, model %v at %d", op, name, r != nil, i, in, at)
			}
		} else {
			// Get-or-add, the way stripe.rec enrols a prover.
			r, i := tb.find(name, h)
			added := r == nil
			if added {
				r, i = tb.add(name, h)
			}
			if added == in || r.name != name || in && int(i) != at {
				t.Fatalf("op %d: get-or-add(%q) = added %v at %d, model %v at %d", op, name, added, i, in, at)
			}
			if added {
				if int(i) != len(model) {
					t.Fatalf("op %d: %q added at %d, want the next index %d", op, name, i, len(model))
				}
				model[name] = int(i)
				adds++
			}
		}
		if op%50_000 == 0 {
			walk(op)
		}
	}
	walk(ops)
	if adds < 100_000 {
		t.Fatalf("only %d adds after the anchor, want >= 100000", adds)
	}
	for k := 0; k < 1000; k++ {
		if r, _ := tb.find("x"+nameOf(k), hashOf(k)); r != nil {
			t.Fatalf("find(%q) under %q's hash returned %q", "x"+nameOf(k), nameOf(k), r.name)
		}
	}
	if r, _ := tb.find("anchor", anchorHash); anchor.name != "anchor" || anchor.fresh != want || r != anchor {
		t.Fatalf("the anchor record moved or changed: %q %+v", anchor.name, anchor.fresh)
	}
}

// TestProverTableGenerationWrap pins that the 30-bit dirty generation
// restamps rather than wraps: a record stamped in generation 1 and left
// untouched while every other generation goes by reads dirty, not
// clean, when generation 1 comes round again, and keeps its flags.
func TestProverTableGenerationWrap(t *testing.T) {
	tb := newProverTable()
	r, i := tb.add("p", 1)
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
