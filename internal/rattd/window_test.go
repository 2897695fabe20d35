package rattd

import (
	"math"
	"testing"

	"saferatt/internal/verifier"
)

// windowOf builds a DedupWindow holding exactly the given counters
// (added in order) — test shorthand.
func windowOf(ctrs ...uint64) DedupWindow {
	var w DedupWindow
	for _, c := range ctrs {
		w.Add(c)
	}
	return w
}

// The TestDedupWindow* pins: accept once, backfill inside the window,
// conservative reject behind it, clear on a far jump, canonical bits
// for the checkpoint codec.
func TestDedupWindowBasics(t *testing.T) {
	var w DedupWindow
	if w.Seen(1) || w.Seen(0) {
		t.Fatal("zero window claims to have seen counters")
	}
	if !w.Add(5) {
		t.Fatal("fresh counter rejected")
	}
	if !w.Seen(5) {
		t.Fatal("added counter not seen")
	}
	if w.Add(5) {
		t.Fatal("replay accepted")
	}
	// Out-of-order within the window.
	if !w.Add(3) || !w.Seen(3) || w.Add(3) {
		t.Fatal("in-window backfill broken")
	}
	if w.Seen(4) {
		t.Fatal("untracked in-window counter reads as seen")
	}
	if got := len(w.Counters()); got != 2 {
		t.Fatalf("%d counters, want 2", got)
	}
}

func TestDedupWindowSlide(t *testing.T) {
	var w DedupWindow
	for c := uint64(1); c <= verifier.DedupBits+10; c++ {
		if !w.Add(c) {
			t.Fatalf("fresh counter %d rejected", c)
		}
		if w.Add(c) {
			t.Fatalf("immediate replay of %d accepted", c)
		}
	}
	if w.Top != verifier.DedupBits+10 {
		t.Fatalf("Top = %d, want %d", w.Top, verifier.DedupBits+10)
	}
	// Everything in (Top-verifier.DedupBits, Top] is exactly tracked...
	for c := w.Top - verifier.DedupBits + 1; c <= w.Top; c++ {
		if !w.Seen(c) {
			t.Fatalf("in-window counter %d forgot its accept", c)
		}
	}
	// ...and everything at or below Top-verifier.DedupBits is conservatively a
	// replay, even a counter never actually accepted.
	if !w.Seen(1) || !w.Seen(w.Top-verifier.DedupBits) {
		t.Fatal("aged-out counters must read as seen (conservative reject)")
	}
	if w.Add(2) {
		t.Fatal("aged-out counter accepted")
	}
	// A far jump clears the skipped range.
	jump := w.Top + 3*verifier.DedupBits
	if !w.Add(jump) {
		t.Fatal("far-future counter rejected")
	}
	for c := jump - verifier.DedupBits + 1; c < jump; c++ {
		if w.Seen(c) {
			t.Fatalf("counter %d seen after window jump cleared it", c)
		}
	}
	if got := len(w.Counters()); got != 1 {
		t.Fatalf("%d counters after jump, want 1", got)
	}
}

func TestDedupWindowCounters(t *testing.T) {
	w := windowOf(7, 3, 9)
	got := w.Counters()
	want := []uint64{3, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("Counters() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Counters() = %v, want %v", got, want)
		}
	}
	if (&DedupWindow{}).Counters() != nil {
		t.Fatal("zero window should report no counters")
	}
	// Top at the very end of the counter space must not wrap the scan.
	var hi DedupWindow
	hi.Add(math.MaxUint64)
	if cs := hi.Counters(); len(cs) != 1 || cs[0] != math.MaxUint64 {
		t.Fatalf("Counters() at MaxUint64 = %v", cs)
	}
}

func TestDedupWindowCheckpointCanonical(t *testing.T) {
	// Two histories converging to the same tracked set must encode
	// identically (canonical form: out-of-window bits zero).
	a := windowOf(1, 2, 3, 300)
	b := windowOf(300)
	b.Add(300 - verifier.DedupBits + 1) // in-window
	a = windowOf(300, 300-verifier.DedupBits+1)
	if a != b {
		t.Fatalf("equal tracked sets differ structurally:\n a=%+v\n b=%+v", a, b)
	}
}
