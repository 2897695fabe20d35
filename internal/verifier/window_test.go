package verifier

import (
	"math"
	"slices"
	"testing"
)

// windowModel is DedupWindow's specification: the plain set of
// accepted counters, with the window's one sharpening stated once — a
// counter W or more behind the highest accepted one is seen, accepted
// or not.
type windowModel struct {
	top      uint64   // highest accepted counter; 0 before any
	accepted []uint64 // every counter accepted
}

func (m *windowModel) seen(c uint64) bool {
	return slices.Contains(m.accepted, c) || c <= m.top && m.top-c >= DedupBits
}

func (m *windowModel) add(c uint64) bool {
	if m.seen(c) {
		return false
	}
	m.accepted = append(m.accepted, c)
	m.top = max(m.top, c)
	return true
}

// TestDedupWindowMatchesModel runs DedupWindow against windowModel on
// every sequence of up to modelDepth Adds drawn from an alphabet that
// straddles each boundary of the current top: 0, top−W−1, top−W,
// top−W+1, top−1, top, top+1, top+W−1, top+W and MaxUint64. Counters
// come off the wire, so every uint64 is a real input, and the
// arithmetic wraps like the wire's. At the end of each sequence the two
// agree on the last Add's result and on Seen at every alphabet value
// and at every accepted counter and its neighbours. Shorter sequences
// run first, so the divergence reported is a shortest one.
func TestDedupWindowMatchesModel(t *testing.T) {
	const modelDepth = 6
	alphabet := func(top uint64) [10]uint64 {
		const w = DedupBits
		return [10]uint64{0, top - w - 1, top - w, top - w + 1, top - 1, top, top + 1, top + w - 1, top + w, math.MaxUint64}
	}
	sequences := 0
	var walk func(w DedupWindow, m windowModel, path []uint64, depth int)
	walk = func(w DedupWindow, m windowModel, path []uint64, depth int) {
		for _, c := range alphabet(m.top) {
			w2, m2 := w, windowModel{top: m.top, accepted: slices.Clip(m.accepted)}
			p := append(path, c)
			got, want := w2.Add(c), m2.add(c)
			if len(p) < depth {
				walk(w2, m2, p, depth)
				continue
			}
			sequences++
			if got != want {
				t.Fatalf("Adds %v: the last returned %v, model says %v", p, got, want)
			}
			probe := func(c uint64) {
				if got, want := w2.Seen(c), m2.seen(c); got != want {
					t.Fatalf("after Adds %v: Seen(%d) = %v, model says %v", p, c, got, want)
				}
			}
			for _, c := range alphabet(m2.top) {
				probe(c)
			}
			for _, c := range m2.accepted {
				probe(c - 1)
				probe(c)
				probe(c + 1)
			}
		}
	}
	for depth := 1; depth <= modelDepth; depth++ {
		walk(DedupWindow{}, windowModel{}, nil, depth)
	}
	if sequences != 1111110 {
		t.Fatalf("walked %d sequences, want every one of length 1 to %d", sequences, modelDepth)
	}
}
