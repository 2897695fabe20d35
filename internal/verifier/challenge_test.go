package verifier

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
)

// TestChallengeWindowSlides issues ChallengeBits+1 sequence numbers on
// a bare window: the oldest has slid out, the newest redeems once, and
// a seq whose slot a newer one reused is not redeemed through it.
func TestChallengeWindowSlides(t *testing.T) {
	var w ChallengeWindow
	if w.Redeem(0) || w.Redeem(1) {
		t.Fatal("redeemed a seq before any was issued")
	}
	if seq := w.Issue(); seq != 1 || !w.Redeem(1) {
		t.Fatalf("first seq %d not redeemed", seq)
	}
	var top uint64
	for i := 0; i < ChallengeBits; i++ {
		top = w.Issue()
	}
	if top != ChallengeBits+1 {
		t.Fatalf("last seq %d, want %d", top, ChallengeBits+1)
	}
	if w.Redeem(top + 1) {
		t.Fatal("redeemed a seq not issued yet")
	}
	if w.Redeem(1) {
		t.Fatal("the oldest seq is still redeemable after ChallengeBits newer ones")
	}
	// seq 1's slot was set when it was redeemed; issuing top (the same
	// slot) cleared it for top, not for 1.
	if !w.Redeem(top) {
		t.Fatal("the newest seq is not redeemable")
	}
	if w.Redeem(top) {
		t.Fatal("the newest seq redeemed twice")
	}
	if w.Redeem(1) {
		t.Fatal("a cleared slot redeemed its earlier seq")
	}
	if !w.Redeem(2) {
		t.Fatal("the oldest seq inside the window is not redeemable")
	}
}

// challengeModel is ChallengeWindow's specification: a plain set of
// redeemed seqs. Seq s redeems iff 0 < s ≤ top, top − s < ChallengeBits,
// and s was not redeemed before.
type challengeModel struct {
	top      uint64 // the last seq issued
	redeemed []uint64
}

func (m *challengeModel) issue() uint64 {
	m.top++
	return m.top
}

func (m *challengeModel) redeem(s uint64) bool {
	if s == 0 || s > m.top || m.top-s >= ChallengeBits || slices.Contains(m.redeemed, s) {
		return false
	}
	m.redeemed = append(m.redeemed, s)
	return true
}

// challengeOp is one step of a model-check sequence: an Issue, or a
// Redeem of seq.
type challengeOp struct {
	issue bool
	seq   uint64
}

func (op challengeOp) String() string {
	if op.issue {
		return "Issue"
	}
	return fmt.Sprintf("Redeem(%d)", op.seq)
}

// TestChallengeWindowMatchesModel runs ChallengeWindow against
// challengeModel on every sequence of up to five operations, each an
// Issue or a Redeem of one of 0, top−W−1, top−W, top−W+1, top−1, top,
// top+1 and MaxUint64 (wrapping), from a fresh window and from one
// W+2 issues in, whose oldest seqs have slid out. At the end of each
// sequence the two agree on the last operation's result, then on
// Redeem, one after another, of every alphabet value and of every
// redeemed seq and its neighbours. Shorter sequences run first, so the
// divergence reported is a shortest one.
func TestChallengeWindowMatchesModel(t *testing.T) {
	const modelDepth = 5
	alphabet := func(top uint64) [8]uint64 {
		const w = ChallengeBits
		return [8]uint64{0, top - w - 1, top - w, top - w + 1, top - 1, top, top + 1, math.MaxUint64}
	}
	// wins[k] is the window after k operations. A copy takes top and the
	// bits; each window keeps its own mutex.
	var wins [modelDepth + 1]ChallengeWindow
	load := func(k int, from *ChallengeWindow) *ChallengeWindow {
		wins[k].top, wins[k].bits = from.top, from.bits
		return &wins[k]
	}
	sequences := 0
	var walk func(m challengeModel, path []challengeOp, depth int)
	walk = func(m challengeModel, path []challengeOp, depth int) {
		k := len(path)
		ops := [9]challengeOp{{issue: true}}
		for i, s := range alphabet(m.top) {
			ops[i+1] = challengeOp{seq: s}
		}
		for _, op := range ops {
			w2, m2 := load(k+1, &wins[k]), challengeModel{top: m.top, redeemed: slices.Clip(m.redeemed)}
			p := append(path, op)
			var same bool
			if op.issue {
				same = w2.Issue() == m2.issue()
			} else {
				same = w2.Redeem(op.seq) == m2.redeem(op.seq)
			}
			if len(p) < depth {
				walk(m2, p, depth)
				continue
			}
			sequences++
			if !same {
				t.Fatalf("after %v: the last disagrees with the model", p)
			}
			// The probes go on from the leaf's own state: the next
			// sibling reloads it.
			check := func(s uint64) {
				if got, want := w2.Redeem(s), m2.redeem(s); got != want {
					t.Fatalf("after %v and the probes before it: Redeem(%d) = %v, model says %v", p, s, got, want)
				}
			}
			for _, s := range alphabet(m2.top) {
				check(s)
			}
			for _, s := range m2.redeemed {
				check(s - 1)
				check(s)
				check(s + 1)
			}
		}
	}
	for _, issued := range []uint64{0, ChallengeBits + 2} {
		wins[0] = ChallengeWindow{}
		for range issued {
			wins[0].Issue()
		}
		for depth := 1; depth <= modelDepth; depth++ {
			walk(challengeModel{top: issued}, nil, depth)
		}
	}
	if sequences != 2*66429 {
		t.Fatalf("walked %d sequences, want every one of length 1 to %d from both starts", sequences, modelDepth)
	}
}

// TestChallengerOpen holds Open's order: nothing it refuses before the
// window consumes the challenge, and a key drawn afresh (as a restored
// server draws one) refuses every nonce minted under the old one.
func TestChallengerOpen(t *testing.T) {
	c := NewChallenger([]byte("verifier-only key"), []byte("test"))
	nonce := c.Issue("prv")
	if len(nonce) != ChallengeNonceLen {
		t.Fatalf("nonce of %d bytes", len(nonce))
	}
	flipped := append(Challenge(nil), nonce...)
	flipped[ChallengeNonceLen-1] ^= 1
	for _, tc := range []struct {
		name  string
		n     int
		nonce Challenge
		want  Reason
	}{
		{"prv", 0, nil, ReasonEmptyBundle},
		{"prv", 1, nonce[:16], ReasonUnsolicited},
		{"prv", 1, flipped, ReasonNonceMismatch},
		{"other", 1, nonce, ReasonNonceMismatch},
		{"prv", 1, nonce, ReasonOK},
		{"prv", 1, nonce, ReasonUnsolicited},
	} {
		if got := c.Open(tc.name, tc.n, tc.nonce); got != tc.want {
			t.Fatalf("Open(%q, %d, %x) = %q, want %q", tc.name, tc.n, []byte(tc.nonce), got, tc.want)
		}
	}

	old := c.Issue("prv") // seq 2
	fresh := NewChallenger([]byte("a key drawn at restore"), []byte("test"))
	fresh.Issue("prv")
	if again := fresh.Issue("prv"); string(again[:16]) != string(old[:16]) {
		t.Fatalf("a fresh key's second nonce has head %x, want old's %x", again[:16], old[:16])
	}
	if got := fresh.Open("prv", 1, old); got != ReasonNonceMismatch {
		t.Fatalf("a fresh key redeemed a nonce minted before it: %q", got)
	}
}

// TestChallengeRedeemRace has many goroutines redeem one nonce at once:
// exactly one wins (meaningful under -race).
func TestChallengeRedeemRace(t *testing.T) {
	const racers = 16
	c := NewChallenger([]byte("verifier-only key"), []byte("test"))
	for round := 0; round < 50; round++ {
		nonce := c.Issue("prv")
		var wg sync.WaitGroup
		wins := make(chan struct{}, racers)
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if c.Open("prv", 1, nonce) == ReasonOK {
					wins <- struct{}{}
				}
			}()
		}
		wg.Wait()
		if len(wins) != 1 {
			t.Fatalf("round %d: %d goroutines redeemed one nonce", round, len(wins))
		}
	}
}

// FuzzRedeemChallenge: for any nonce bytes and name, Open never panics
// and never lets in a nonce the Challenger did not mint for that name,
// nor one twice.
func FuzzRedeemChallenge(f *testing.F) {
	key, label := []byte("verifier-only key"), []byte("fuzz")
	names := []string{"prv-a", "prv-b", ""}
	mint := func() (*Challenger, map[string]string) {
		c := NewChallenger(key, label)
		minted := map[string]string{}
		for _, name := range names {
			minted[string(c.Issue(name))] = name
		}
		return c, minted
	}
	_, minted := mint()
	for nonce, name := range minted {
		f.Add([]byte(nonce), name)
		f.Add([]byte(nonce), name+"x")
	}
	f.Add([]byte("made-up"), "prv-a")
	f.Add(make([]byte, ChallengeNonceLen), "")
	f.Fuzz(func(t *testing.T, nonce []byte, name string) {
		c, minted := mint()
		if c.Open(name, 1, nonce) != ReasonOK {
			return
		}
		if owner, ok := minted[string(nonce)]; !ok || owner != name {
			t.Fatalf("Open let in %x for %q, which it did not mint for that name", nonce, name)
		}
		if c.Open(name, 1, nonce) == ReasonOK {
			t.Fatalf("Open let in %x twice", nonce)
		}
	})
}
