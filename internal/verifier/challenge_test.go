package verifier

import (
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

// TestChallengerOpen holds Open's order: nothing it refuses before the
// window consumes the challenge, and a key drawn afresh (as a restored
// server draws one) refuses every nonce minted under the old one.
func TestChallengerOpen(t *testing.T) {
	c := NewChallenger([]byte("verifier-only key"), []byte("test"))
	nonce := c.Issue(7, "prv")
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

	old := c.Issue(8, "prv")
	fresh := NewChallenger([]byte("a key drawn at restore"), []byte("test"))
	fresh.Issue(8, "prv") // the same ctr, and the same seq, as old
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
		nonce := c.Issue(uint64(round), "prv")
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
		for i, name := range names {
			minted[string(c.Issue(uint64(i+1), name))] = name
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
