package verifier

import (
	"crypto/hmac"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestCtEqualMatchesHmacEqual holds ctEqual to the function it stands
// in for: over random contents of every length from 0 to 80 — across
// the eight-byte steps and every length of byte tail — equal slices,
// a difference planted at each byte position in turn, and every
// mismatch of lengths.
func TestCtEqualMatchesHmacEqual(t *testing.T) {
	agree := func(a, b []byte) bool { return ctEqual(a, b) == hmac.Equal(a, b) }
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for n := 0; n <= 80; n++ {
			a := make([]byte, n)
			rng.Read(a)
			b := append([]byte(nil), a...)
			if !ctEqual(a, b) || !agree(a, b) {
				return false
			}
			for at := 0; at < n; at++ {
				b[at] ^= byte(1 + rng.Intn(255))
				if ctEqual(a, b) || !agree(a, b) {
					return false
				}
				b[at] = a[at]
			}
			for m := 0; m <= 80; m++ {
				if m != n && (ctEqual(a, make([]byte, m)) || ctEqual(a[:min(n, m)], a) != (m >= n)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
	if !ctEqual(nil, []byte{}) || ctEqual(nil, []byte{0}) {
		t.Fatal("nil and empty must compare equal, nil and a zero byte unequal")
	}
}

// FuzzCtEqual runs its seed corpus under plain `go test`: pairs around
// the word boundaries, and pairs that differ only in the last byte.
func FuzzCtEqual(f *testing.F) {
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64} {
		a := make([]byte, n)
		for i := range a {
			a[i] = byte(i*37 + n)
		}
		f.Add(a, a)
		f.Add(a, a[:n/2])
		if n > 0 {
			b := append([]byte(nil), a...)
			b[n-1] ^= 0x80
			f.Add(a, b)
			b = append([]byte(nil), a...)
			b[0] ^= 1
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if got, want := ctEqual(a, b), hmac.Equal(a, b); got != want {
			t.Fatalf("ctEqual(%x, %x) = %v, hmac.Equal says %v", a, b, got, want)
		}
	})
}
