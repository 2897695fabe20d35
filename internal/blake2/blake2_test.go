package blake2

import (
	"bytes"
	"encoding/hex"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// RFC 7693 Appendix A: BLAKE2b-512("abc").
const abcB512 = "ba80a53f981c4d0d6a2797b69f12f6e94c212f14685ac4b74b12bb6fdbffa2d1" +
	"7d87c5392aab792dc252d5de4533cc9518d38aa8dbf1925ab92386edd4009923"

// RFC 7693 Appendix B: BLAKE2s-256("abc").
const abcS256 = "508c5e8c327c14e2e1a72ba34eeb452f37458b209ed63a294d999b4c86675982"

func TestBlake2b512ABC(t *testing.T) {
	h := New512()
	h.Write([]byte("abc"))
	if got := hex.EncodeToString(h.Sum(nil)); got != abcB512 {
		t.Fatalf("BLAKE2b-512(abc)\n got %s\nwant %s", got, abcB512)
	}
}

func TestBlake2s256ABC(t *testing.T) {
	h := New256()
	h.Write([]byte("abc"))
	if got := hex.EncodeToString(h.Sum(nil)); got != abcS256 {
		t.Fatalf("BLAKE2s-256(abc)\n got %s\nwant %s", got, abcS256)
	}
}

// selftestSeq is the deterministic input generator from RFC 7693
// Appendix E.
func selftestSeq(n int, seed uint32) []byte {
	out := make([]byte, n)
	a := 0xDEAD4BAD * seed
	b := uint32(1)
	for i := 0; i < n; i++ {
		t := a + b
		a = b
		b = t
		out[i] = byte(t >> 24)
	}
	return out
}

// TestBlake2bSelfTest runs the full RFC 7693 Appendix E self-test for
// BLAKE2b: 48 hashes (4 digest sizes x 6 input lengths x unkeyed/keyed)
// hashed together must equal a known 32-byte checksum.
func TestBlake2bSelfTest(t *testing.T) {
	want := "c23a7800d98123bd10f506c61e29da5603d763b8bbad2e737f5e765a7bccd475"
	ctx, err := NewB(32, nil)
	if err != nil {
		t.Fatal(err)
	}
	mdLens := []int{20, 32, 48, 64}
	inLens := []int{0, 3, 128, 129, 255, 1024}
	for _, outlen := range mdLens {
		for _, inlen := range inLens {
			in := selftestSeq(inlen, uint32(inlen))
			md, err := SumB(outlen, nil, in)
			if err != nil {
				t.Fatal(err)
			}
			ctx.Write(md)

			key := selftestSeq(outlen, uint32(outlen))
			md, err = SumB(outlen, key, in)
			if err != nil {
				t.Fatal(err)
			}
			ctx.Write(md)
		}
	}
	if got := hex.EncodeToString(ctx.Sum(nil)); got != want {
		t.Fatalf("BLAKE2b self-test checksum\n got %s\nwant %s", got, want)
	}
}

// TestBlake2sSelfTest is the RFC 7693 Appendix E self-test for BLAKE2s.
func TestBlake2sSelfTest(t *testing.T) {
	want := "6a411f08ce25adcdfb02aba641451cec53c598b24f4fc787fbdc88797f4c1dfe"
	ctx, err := NewS(32, nil)
	if err != nil {
		t.Fatal(err)
	}
	mdLens := []int{16, 20, 28, 32}
	inLens := []int{0, 3, 64, 65, 255, 1024}
	for _, outlen := range mdLens {
		for _, inlen := range inLens {
			in := selftestSeq(inlen, uint32(inlen))
			md, err := SumS(outlen, nil, in)
			if err != nil {
				t.Fatal(err)
			}
			ctx.Write(md)

			key := selftestSeq(outlen, uint32(outlen))
			md, err = SumS(outlen, key, in)
			if err != nil {
				t.Fatal(err)
			}
			ctx.Write(md)
		}
	}
	if got := hex.EncodeToString(ctx.Sum(nil)); got != want {
		t.Fatalf("BLAKE2s self-test checksum\n got %s\nwant %s", got, want)
	}
}

func TestParameterValidation(t *testing.T) {
	if _, err := NewB(0, nil); err == nil {
		t.Error("NewB(0) should fail")
	}
	if _, err := NewB(65, nil); err == nil {
		t.Error("NewB(65) should fail")
	}
	if _, err := NewB(32, make([]byte, 65)); err == nil {
		t.Error("NewB with 65-byte key should fail")
	}
	if _, err := NewS(0, nil); err == nil {
		t.Error("NewS(0) should fail")
	}
	if _, err := NewS(33, nil); err == nil {
		t.Error("NewS(33) should fail")
	}
	if _, err := NewS(32, make([]byte, 33)); err == nil {
		t.Error("NewS with 33-byte key should fail")
	}
}

func TestSizeAndBlockSize(t *testing.T) {
	b := New512()
	if b.Size() != 64 || b.BlockSize() != 128 {
		t.Errorf("BLAKE2b: Size=%d BlockSize=%d", b.Size(), b.BlockSize())
	}
	s := New256()
	if s.Size() != 32 || s.BlockSize() != 64 {
		t.Errorf("BLAKE2s: Size=%d BlockSize=%d", s.Size(), s.BlockSize())
	}
}

func TestSumDoesNotFinalizeState(t *testing.T) {
	h := New512()
	h.Write([]byte("ab"))
	first := h.Sum(nil)
	second := h.Sum(nil)
	if !bytes.Equal(first, second) {
		t.Fatal("consecutive Sum calls differ")
	}
	h.Write([]byte("c"))
	want, _ := SumB(64, nil, []byte("abc"))
	if !bytes.Equal(h.Sum(nil), want) {
		t.Fatal("Write after Sum produced wrong digest")
	}
}

func TestSumAppends(t *testing.T) {
	h := New256()
	h.Write([]byte("x"))
	prefix := []byte{1, 2, 3}
	out := h.Sum(prefix)
	if !bytes.Equal(out[:3], prefix) {
		t.Fatal("Sum did not preserve prefix")
	}
	if len(out) != 3+32 {
		t.Fatalf("Sum output length %d", len(out))
	}
}

func TestReset(t *testing.T) {
	key := []byte("secret key value")
	h, _ := NewB(32, key)
	h.Write([]byte("first message"))
	h.Reset()
	h.Write([]byte("abc"))
	got := h.Sum(nil)
	want, _ := SumB(32, key, []byte("abc"))
	if !bytes.Equal(got, want) {
		t.Fatal("keyed digest after Reset differs from fresh digest")
	}
}

func TestKeyedDiffersFromUnkeyed(t *testing.T) {
	msg := []byte("attestation report")
	unkeyed, _ := SumB(32, nil, msg)
	keyed, _ := SumB(32, []byte("k"), msg)
	if bytes.Equal(unkeyed, keyed) {
		t.Fatal("keyed and unkeyed BLAKE2b agree")
	}
	unkeyedS, _ := SumS(32, nil, msg)
	keyedS, _ := SumS(32, []byte("k"), msg)
	if bytes.Equal(unkeyedS, keyedS) {
		t.Fatal("keyed and unkeyed BLAKE2s agree")
	}
}

func TestEmptyInput(t *testing.T) {
	// One-shot of nothing must equal streaming of nothing, for both
	// unkeyed and keyed modes (keyed-empty exercises the "key block is
	// the final block" path).
	for _, key := range [][]byte{nil, []byte("0123456789abcdef")} {
		b1, _ := SumB(64, key, nil)
		h, _ := NewB(64, key)
		if !bytes.Equal(b1, h.Sum(nil)) {
			t.Fatal("BLAKE2b empty-input mismatch")
		}
		s1, _ := SumS(32, key, nil)
		hs, _ := NewS(32, key)
		if !bytes.Equal(s1, hs.Sum(nil)) {
			t.Fatal("BLAKE2s empty-input mismatch")
		}
	}
}

// Property: splitting the input across arbitrary Write boundaries never
// changes the digest (exercises all buffering paths, including writes
// that exactly fill the buffer and writes spanning many blocks).
func TestPropertyIncrementalEqualsOneShot(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		n := rng.IntN(5 * BlockSizeB)
		msg := make([]byte, n)
		for i := range msg {
			msg[i] = byte(rng.Uint32())
		}
		wantB, _ := SumB(64, nil, msg)
		wantS, _ := SumS(32, nil, msg)

		hb := New512()
		hs := New256()
		for off := 0; off < n; {
			chunk := 1 + rng.IntN(2*BlockSizeB)
			if off+chunk > n {
				chunk = n - off
			}
			hb.Write(msg[off : off+chunk])
			hs.Write(msg[off : off+chunk])
			off += chunk
		}
		return bytes.Equal(hb.Sum(nil), wantB) && bytes.Equal(hs.Sum(nil), wantS)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: exact block-multiple inputs (the trickiest finalization
// case) hash identically whether written in one shot or block by block.
func TestBlockAlignedInputs(t *testing.T) {
	for _, blocks := range []int{1, 2, 3, 7} {
		msg := bytes.Repeat([]byte{0x5A}, blocks*BlockSizeB)
		want, _ := SumB(64, nil, msg)
		h := New512()
		for i := 0; i < blocks; i++ {
			h.Write(msg[i*BlockSizeB : (i+1)*BlockSizeB])
		}
		if !bytes.Equal(h.Sum(nil), want) {
			t.Fatalf("BLAKE2b mismatch at %d blocks", blocks)
		}

		msgS := msg[:blocks*BlockSizeS]
		wantS, _ := SumS(32, nil, msgS)
		hs := New256()
		for i := 0; i < blocks; i++ {
			hs.Write(msgS[i*BlockSizeS : (i+1)*BlockSizeS])
		}
		if !bytes.Equal(hs.Sum(nil), wantS) {
			t.Fatalf("BLAKE2s mismatch at %d blocks", blocks)
		}
	}
}

// Property: distinct digest sizes yield unrelated digests (not mere
// truncations), because the size is bound into the parameter block.
func TestDigestSizeBinding(t *testing.T) {
	msg := []byte("same input")
	d32, _ := SumB(32, nil, msg)
	d64, _ := SumB(64, nil, msg)
	if bytes.Equal(d32, d64[:32]) {
		t.Fatal("BLAKE2b-256 is a truncation of BLAKE2b-512; parameter block not bound")
	}
	s16, _ := SumS(16, nil, msg)
	s32, _ := SumS(32, nil, msg)
	if bytes.Equal(s16, s32[:16]) {
		t.Fatal("BLAKE2s-128 is a truncation of BLAKE2s-256")
	}
}

func BenchmarkBlake2b(b *testing.B) {
	buf := make([]byte, 64*1024)
	h := New512()
	sum := make([]byte, 0, 64)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		h.Reset()
		h.Write(buf)
		sum = h.Sum(sum[:0])
	}
}

func BenchmarkBlake2s(b *testing.B) {
	buf := make([]byte, 64*1024)
	h := New256()
	sum := make([]byte, 0, 32)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		h.Reset()
		h.Write(buf)
		sum = h.Sum(sum[:0])
	}
}
