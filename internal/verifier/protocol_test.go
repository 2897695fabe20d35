package verifier

import (
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
// failure's own error, not a later report's. The tag source is a Batch,
// which counts every report that reaches it: a report refused on its
// nonce, as a replay or out of order must not, or a forged counter would
// buy a MAC computation.
func TestJudgeBundleShapes(t *testing.T) {
	key := []byte("judge-key")
	img := testImage(5, 1024, 256)
	nonce := []byte("the nonce every report carries")
	clean := reportOver(t, key, img.Bytes(), img.BlockSize(), nonce)
	const (
		tagClean = iota
		tagWrong // the tag of another memory
		tagBad   // a geometry the image refuses: an error verdict
		unbound  // clean, but carrying another nonce
		region   // a region report, which a batch-only Tags refuses
	)
	mk := func(ctr uint64, kind int) core.Report {
		r := *clean
		r.Counter = ctr
		switch kind {
		case tagWrong:
			r.Tag = append([]byte(nil), r.Tag...)
			r.Tag[0] ^= 1
		case tagBad:
			r.BlockSize *= 2
		case unbound:
			r.Nonce = []byte("another nonce, which no rule binds")
		case region:
			r.RegionCount = 1
		}
		return r
	}
	// The error the tag source itself refuses a tagBad report with: Judge
	// must hand back this one, not merely some error.
	bad := mk(1, tagBad)
	_, errGeometry := NewBatch(suite.SHA256, img).VerifyOnce(key, &bad, false)
	if errGeometry == nil {
		t.Fatal("the image accepted a report of another geometry")
	}
	bundle := func(ctrs ...uint64) []core.Report {
		out := make([]core.Report, len(ctrs))
		for i, c := range ctrs {
			out[i] = mk(c, tagClean)
		}
		return out
	}
	with := func(b []core.Report, i, kind int) []core.Report {
		b[i] = mk(b[i].Counter, kind)
		return b
	}
	late := bundle(1, 2)
	late[1].TS = sim.Time(5 * sim.Second)
	cases := []struct {
		name    string
		p       Protocol
		reports []core.Report
		want    []Reason
		first   Reason
		err     error    // the first failure's error
		window  []uint64 // ERASMUS counters committed
		seed    uint64   // SeED watermark after
		pol     CollectionPolicy
		tagged  uint64 // reports that reached the tag source
	}{
		{"smart/empty", SMART, nil, nil, ReasonEmptyBundle, nil, nil, 0, CollectionPolicy{}, 0},
		{"erasmus/empty", ERASMUS, nil, nil, ReasonEmptyCollection, nil, nil, 0, CollectionPolicy{}, 0},
		{"seed/empty", SeED, nil, nil, ReasonEmptyBundle, nil, nil, 0, CollectionPolicy{}, 0},
		{"smart/stops at the first failure", SMART, with(bundle(1, 2, 3), 1, tagWrong),
			[]Reason{ReasonOK, ReasonTagMismatch}, ReasonTagMismatch, nil, nil, 0, CollectionPolicy{}, 2},
		{"erasmus/judges every report", ERASMUS, with(with(bundle(1, 2, 3), 1, tagWrong), 2, tagBad),
			[]Reason{ReasonOK, ReasonTagMismatch, ReasonError}, ReasonTagMismatch, nil, []uint64{1}, 0, CollectionPolicy{}, 3},
		{"erasmus/first error", ERASMUS, with(with(bundle(1, 2, 2, 3), 0, tagBad), 3, region),
			[]Reason{ReasonError, ReasonOK, ReasonReplay, ReasonRegionUnserved}, ReasonError, errGeometry, []uint64{2}, 0, CollectionPolicy{}, 3},
		{"seed/judges every report", SeED, with(bundle(2, 1, 3), 2, tagWrong),
			[]Reason{ReasonOK, ReasonSeedReplay, ReasonTagMismatch}, ReasonSeedReplay, nil, nil, 2, CollectionPolicy{}, 2},
		{"erasmus/cadence before the tag", ERASMUS, with(late, 1, tagWrong),
			[]Reason{ReasonOK, ReasonCadence}, ReasonCadence, nil, []uint64{1}, 0, CollectionPolicy{TM: sim.Second}, 1},
		{"erasmus/cheap refusals never reach the tag", ERASMUS, with(bundle(4, 4, 2, 6, 7), 3, unbound),
			[]Reason{ReasonOK, ReasonReplay, ReasonNonMonotonic, ReasonNonceUnbound, ReasonOK}, ReasonReplay, nil, []uint64{4, 7}, 0, CollectionPolicy{}, 2},
		{"seed/cheap refusals never reach the tag", SeED, with(bundle(4, 4, 2, 6), 3, unbound),
			[]Reason{ReasonOK, ReasonSeedReplay, ReasonSeedReplay, ReasonSeedNonceUnbound}, ReasonSeedReplay, nil, nil, 4, CollectionPolicy{}, 1},
		{"smart/unbound nonce never reaches the tag", SMART, with(bundle(1), 0, unbound),
			[]Reason{ReasonNonceMismatch}, ReasonNonceMismatch, nil, nil, 0, CollectionPolicy{}, 0},
	}
	for _, tc := range cases {
		for _, byPtr := range []bool{false, true} {
			var f Freshness
			b := NewBatch(suite.SHA256, img)
			x := Expect{Nonce: nonce, Tags: Tags{Key: key, Batch: b}, Policy: tc.pol}
			for range tc.reports {
				x.Nonces = append(x.Nonces, nonce)
			}
			var why []Reason
			var first Reason
			var err error
			if byPtr {
				ptrs := make([]*core.Report, len(tc.reports))
				for i := range tc.reports {
					ptrs[i] = &tc.reports[i]
				}
				why, first, err = Judge(nil, tc.p, &f, ptrs, &x)
			} else {
				why, first, err = Judge(nil, tc.p, &f, tc.reports, &x)
			}
			if !slices.Equal(why, tc.want) || first != tc.first || errText(err) != errText(tc.err) {
				t.Errorf("%s (by pointer %v): %v, first %v, err %v; want %v, %v, %v", tc.name, byPtr, why, first, err, tc.want, tc.first, tc.err)
			}
			// Every report that reached the tag source and was not refused
			// on its geometry or region is counted (BatchStats.Reports).
			refused := uint64(0)
			for i, w := range why {
				if w == ReasonRegionUnserved || w == ReasonError && tc.reports[i].BlockSize != clean.BlockSize {
					refused++
				}
			}
			if got := b.Stats().Reports + refused; got != tc.tagged {
				t.Errorf("%s (by pointer %v): %d reports reached the tag source, want %d", tc.name, byPtr, got, tc.tagged)
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

// errText is err's text, "" for nil: a tag source's refusals are made
// per call, so the test compares what they say.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
