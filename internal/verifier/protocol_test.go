package verifier

import (
	"math/rand/v2"
	"testing"

	"saferatt/internal/channel"
	"saferatt/internal/core"
	"saferatt/internal/prover"
	"saferatt/internal/suite"
)

// TestDedupWindowMatchesMapOracle replays generated counter streams —
// mostly advancing, with jitter, exact repeats, long jumps and stale
// stragglers — through a DedupWindow and through the exact
// map[uint64]bool it replaced. The two must agree on every counter the
// window still tracks; behind the window the window says "seen" whatever
// the map says (its one deliberate sharpening).
func TestDedupWindowMatchesMapOracle(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xdedb))
		var w DedupWindow
		seen := map[uint64]bool{}
		var top, cur uint64
		for i := 0; i < 5000; i++ {
			var c uint64
			switch p := rng.IntN(100); {
			case p < 55:
				cur++
				c = cur
			case p < 75: // jitter around the head
				c = cur + uint64(rng.IntN(8)) - min(cur, 4)
			case p < 85: // anywhere inside the window, or just behind it
				c = top - min(top, uint64(rng.IntN(DedupBits+32)))
			case p < 95: // exact repeat of something recent
				c = cur - min(cur, uint64(rng.IntN(4)))
			default: // a jump that slides, or clears, the window
				cur += uint64(rng.IntN(2 * DedupBits))
				c = cur
			}
			behind := c <= top && top-c >= DedupBits
			want := seen[c] || behind
			if got := w.Seen(c); got != want {
				t.Fatalf("seed %d step %d: Seen(%d) = %v, oracle %v (top %d)", seed, i, c, got, want, top)
			}
			if added := w.Add(c); added == want {
				t.Fatalf("seed %d step %d: Add(%d) = %v with oracle seen=%v (top %d)", seed, i, c, added, want, top)
			}
			if !behind {
				seen[c] = true
			}
			top = max(top, c)
			if w.Top != top {
				t.Fatalf("seed %d step %d: Top = %d, want %d", seed, i, w.Top, top)
			}
		}
	}
}

// TestReasonTexts pins that every verdict has its own text and that
// only ReasonOK's is empty — a wire verdict's Reason names exactly one
// rule.
func TestReasonTexts(t *testing.T) {
	byText := map[string]Reason{}
	for r := ReasonOK; int(r) < len(reasonText); r++ {
		text := r.String()
		if (text == "") != (r == ReasonOK) {
			t.Errorf("reason %d has text %q", r, text)
		}
		if other, dup := byText[text]; dup {
			t.Errorf("reasons %d and %d share the text %q", other, r, text)
		}
		byText[text] = r
	}
	if got := ReasonError.Text(ErrUnknownImage); got != "verification error: verifier: unknown image" {
		t.Errorf("ReasonError.Text = %q", got)
	}
	if got := ReasonReplay.Text(ErrUnknownImage); got != ReasonReplay.String() {
		t.Errorf("a rule's text took an error's detail: %q", got)
	}
}

// TestVerifierImageMovesForward pins that assigning a new golden image
// takes its digest cache with it: an incremental report over the
// updated memory verifies against the new reference (the per-verifier
// cache used to stay keyed on the old bytes and reject it).
func TestVerifierImageMovesForward(t *testing.T) {
	opts := core.Preset(core.SMART, suite.SHA256)
	opts.Path = core.PathIncremental
	w := newWorld(t, opts, channel.Config{})
	if _, err := prover.NewProver("prv", w.dev, w.tr, opts, 10); err != nil {
		t.Fatal(err)
	}
	attest := func() bool {
		before := w.v.Counts().Accepted
		w.v.Challenge("prv")
		w.k.Run()
		return w.v.Counts().Accepted > before
	}
	if !attest() {
		t.Fatal("clean device rejected")
	}
	if err := w.m.Poke(3*w.m.BlockSize()+1, 0x5a); err != nil {
		t.Fatal(err)
	}
	if attest() {
		t.Fatal("updated memory accepted against the old reference")
	}
	w.v.Image = ImageOf(w.m.Snapshot(), w.m.BlockSize())
	if !attest() {
		rs := w.v.Results()
		t.Fatalf("updated memory rejected against the new reference: %s", rs[len(rs)-1].Reason)
	}
}
