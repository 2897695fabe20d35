package core

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"testing"

	"saferatt/internal/sim"
)

func TestSeEDScheduleDeterministicAndJittered(t *testing.T) {
	seed := []byte("shared-seed")
	k := NewSeedKey(seed)
	base, jitter := 10*sim.Second, 5*sim.Second
	var prev sim.Time
	distinct := false
	var first sim.Duration
	for i := uint64(1); i <= 10; i++ {
		d := k.ScheduleDelay(i, base, jitter)
		if d < base || d >= base+jitter {
			t.Fatalf("gap %d = %v outside [base, base+jitter)", i, d)
		}
		if i == 1 {
			first = d
		} else if d != first {
			distinct = true
		}
		prev = prev.Add(d)
	}
	if !distinct {
		t.Fatal("schedule has no jitter")
	}
	// Determinism: the verifier re-derives the prover's trigger times.
	var again sim.Time
	other := NewSeedKey(seed)
	for i := uint64(1); i <= 10; i++ {
		again = again.Add(other.ScheduleDelay(i, base, jitter))
	}
	if again != prev {
		t.Fatalf("schedule not deterministic: trigger 10 at %v, then %v", prev, again)
	}
	if k.ScheduleDelay(1, base, 0) != base {
		t.Fatal("zero jitter should return base")
	}
}

// oneShotDelay is the SeED schedule delay derived without a keyed
// state, the way a verifier seeing the seed once would.
func oneShotDelay(seed []byte, i uint64, base, jitter sim.Duration) sim.Duration {
	if jitter <= 0 {
		return base
	}
	r := AppendPRFOnce(nil, seed, []byte("seed-schedule"), i)
	return base + sim.Duration(binary.BigEndian.Uint64(r[:8])%uint64(jitter))
}

// TestSeedKeyMatchesOneShot pins the keyed SeED derivations to the
// one-shot ones byte for byte: a prover on the keyed form and a
// verifier on the one-shot form must agree on every trigger and nonce.
func TestSeedKeyMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 1))
	seeds := [][]byte{nil, []byte("shared-seed"), bytes.Repeat([]byte{0xa5}, 64), bytes.Repeat([]byte{7}, 200)}
	for i := 0; i < 16; i++ {
		s := make([]byte, 1+rng.IntN(100))
		for j := range s {
			s[j] = byte(rng.Uint32())
		}
		seeds = append(seeds, s)
	}
	base := 10 * sim.Second
	for _, seed := range seeds {
		k := NewSeedKey(seed)
		var dst []byte
		for n := 0; n < 32; n++ {
			ctr := rng.Uint64()
			if n < 4 {
				ctr = uint64(n)
			}
			for _, jitter := range []sim.Duration{0, -1, 1, base / 2, sim.Duration(rng.Int64N(int64(sim.Hour)) + 1)} {
				if got, want := k.ScheduleDelay(ctr, base, jitter), oneShotDelay(seed, ctr, base, jitter); got != want {
					t.Fatalf("seed %x ctr %d jitter %v: keyed delay %v, one-shot %v", seed, ctr, jitter, got, want)
				}
			}
			dst = k.AppendNonce(dst[:0], ctr)
			if want := AppendSeedNonce(nil, seed, ctr); !bytes.Equal(dst, want) {
				t.Fatalf("seed %x ctr %d: keyed nonce %x, one-shot %x", seed, ctr, dst, want)
			}
		}
		// AppendNonce appends, like its one-shot twin.
		if got, want := k.AppendNonce([]byte("p"), 9), AppendSeedNonce([]byte("p"), seed, 9); !bytes.Equal(got, want) {
			t.Fatalf("seed %x: appended nonce %x, want %x", seed, got, want)
		}
	}
}
