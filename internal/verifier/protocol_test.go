package verifier

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"saferatt/internal/channel"
	"saferatt/internal/core"
	"saferatt/internal/prover"
	"saferatt/internal/sim"
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
	core.SetStreamingDefault(false)
	opts := core.Preset(core.SMART, suite.SHA256)
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

// TestJudgeBundleShapes pins what Judge decides about a bundle as a
// whole, on both bundle forms: an empty bundle's verdict, a SMART
// bundle judged only up to its first failure (one exchange, nothing
// committed), an ERASMUS or SeED bundle judged report by report with the
// clean ones committed, the cadence rule ahead of the tag, and the first
// failure's error.
func TestJudgeBundleShapes(t *testing.T) {
	nonce := []byte("the nonce every report carries")
	errBad := errors.New("bad geometry")
	bundle := func(ctrs ...uint64) []core.Report {
		out := make([]core.Report, len(ctrs))
		for i, c := range ctrs {
			out[i] = core.Report{Counter: c, Nonce: nonce}
		}
		return out
	}
	cases := []struct {
		name    string
		p       Protocol
		reports []core.Report
		tag     []error // per report: nil is a clean tag, errMismatch a wrong one
		want    []Reason
		first   Reason
		err     error
		window  []uint64 // ERASMUS counters committed
		seed    uint64   // SeED watermark after
		pol     CollectionPolicy
	}{
		{"smart/empty", SMART, nil, nil, nil, ReasonEmptyBundle, nil, nil, 0, CollectionPolicy{}},
		{"erasmus/empty", ERASMUS, nil, nil, nil, ReasonEmptyCollection, nil, nil, 0, CollectionPolicy{}},
		{"seed/empty", SeED, nil, nil, nil, ReasonEmptyBundle, nil, nil, 0, CollectionPolicy{}},
		{"smart/stops at the first failure", SMART, bundle(1, 2, 3), []error{nil, errMismatch, nil},
			[]Reason{ReasonOK, ReasonTagMismatch}, ReasonTagMismatch, nil, nil, 0, CollectionPolicy{}},
		{"erasmus/judges every report", ERASMUS, bundle(1, 2, 3), []error{nil, errMismatch, errBad},
			[]Reason{ReasonOK, ReasonTagMismatch, ReasonError}, ReasonTagMismatch, nil, []uint64{1}, 0, CollectionPolicy{}},
		{"erasmus/first error", ERASMUS, bundle(1, 2, 2), []error{errBad, nil, nil},
			[]Reason{ReasonError, ReasonOK, ReasonReplay}, ReasonError, errBad, []uint64{2}, 0, CollectionPolicy{}},
		{"seed/judges every report", SeED, bundle(2, 1, 3), []error{nil, nil, errMismatch},
			[]Reason{ReasonOK, ReasonSeedReplay, ReasonTagMismatch}, ReasonSeedReplay, nil, nil, 2, CollectionPolicy{}},
		{"erasmus/cadence before the tag", ERASMUS,
			[]core.Report{{Counter: 1, Nonce: nonce}, {Counter: 2, Nonce: nonce, TS: sim.Time(5 * sim.Second)}},
			[]error{nil, errMismatch}, []Reason{ReasonOK, ReasonCadence}, ReasonCadence, nil, []uint64{1}, 0,
			CollectionPolicy{TM: sim.Second}},
	}
	for _, tc := range cases {
		for _, byPtr := range []bool{false, true} {
			var f Freshness
			var tagged []int
			tag := func(i int) (bool, error) {
				tagged = append(tagged, i)
				if tc.tag[i] == errMismatch {
					return false, nil
				}
				return tc.tag[i] == nil, tc.tag[i]
			}
			var why []Reason
			var first Reason
			var err error
			if byPtr {
				ptrs := make([]*core.Report, len(tc.reports))
				for i := range tc.reports {
					ptrs[i] = &tc.reports[i]
				}
				why, first, err = Judge(nil, tc.p, &f, ptrs, func(uint64) []byte { return nonce }, tc.pol, tag)
			} else {
				why, first, err = Judge(nil, tc.p, &f, tc.reports, func(uint64) []byte { return nonce }, tc.pol, tag)
			}
			if !slices.Equal(why, tc.want) || first != tc.first || err != tc.err {
				t.Errorf("%s (by pointer %v): %v, first %v, err %v; want %v, %v, %v", tc.name, byPtr, why, first, err, tc.want, tc.first, tc.err)
			}
			if tc.p == SMART && len(tagged) != len(tc.want) {
				t.Errorf("%s: tags checked for reports %v, want only the judged %d", tc.name, tagged, len(tc.want))
			}
			for _, c := range tc.window {
				if !f.Window.Seen(c) {
					t.Errorf("%s: counter %d not committed", tc.name, c)
				}
			}
			if f.SeedLast != tc.seed {
				t.Errorf("%s: watermark %d, want %d", tc.name, f.SeedLast, tc.seed)
			}
		}
	}
}

// errMismatch marks a report whose tag does not match in
// TestJudgeBundleShapes' table.
var errMismatch = errors.New("tag mismatch")
