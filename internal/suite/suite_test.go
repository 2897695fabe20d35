package suite

import (
	"bytes"
	"crypto/sha256"
	"io"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewHashAllIDs(t *testing.T) {
	wantSizes := map[HashID]int{SHA256: 32, SHA512: 64, BLAKE2b: 64, BLAKE2s: 32}
	for _, id := range HashIDs() {
		h, err := NewHash(id)
		if err != nil {
			t.Fatalf("NewHash(%s): %v", id, err)
		}
		if h.Size() != wantSizes[id] {
			t.Errorf("%s: Size = %d, want %d", id, h.Size(), wantSizes[id])
		}
	}
	if _, err := NewHash("MD5"); err == nil {
		t.Error("NewHash of unknown id should fail")
	}
}

func TestNewMACKeyedBehavior(t *testing.T) {
	msg := []byte("prover memory contents")
	for _, id := range HashIDs() {
		m1, err := NewMAC(id, []byte("key-A"))
		if err != nil {
			t.Fatalf("NewMAC(%s): %v", id, err)
		}
		m2, _ := NewMAC(id, []byte("key-B"))
		m1.Write(msg)
		m2.Write(msg)
		if bytes.Equal(m1.Sum(nil), m2.Sum(nil)) {
			t.Errorf("%s: different keys produced equal MACs", id)
		}
	}
	if _, err := NewMAC(SHA256, nil); err == nil {
		t.Error("empty key should be rejected")
	}
	if _, err := NewMAC(BLAKE2s, make([]byte, 33)); err == nil {
		t.Error("oversized BLAKE2s key should be rejected")
	}
	if _, err := NewMAC(BLAKE2b, make([]byte, 65)); err == nil {
		t.Error("oversized BLAKE2b key should be rejected")
	}
	if _, err := NewMAC("nope", []byte("k")); err == nil {
		t.Error("unknown MAC id should be rejected")
	}
}

func TestSchemeValidate(t *testing.T) {
	sig, err := NewSigner(ECDSA256)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		s  Scheme
		ok bool
	}{
		{Scheme{Hash: SHA256, Key: []byte("k")}, true},
		{Scheme{Hash: SHA256, Signer: sig}, true},
		{Scheme{Hash: SHA256}, false},                                // neither
		{Scheme{Hash: SHA256, Key: []byte("k"), Signer: sig}, false}, // both
		{Scheme{Hash: "bogus", Key: []byte("k")}, false},
	}
	for i, c := range cases {
		if err := c.s.Validate(); (err == nil) != c.ok {
			t.Errorf("case %d: Validate() = %v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestSchemeNames(t *testing.T) {
	sig, _ := NewSigner(ECDSA256)
	cases := map[string]Scheme{
		"HMAC-SHA-256":       {Hash: SHA256, Key: []byte("k")},
		"HMAC-SHA-512":       {Hash: SHA512, Key: []byte("k")},
		"keyed-BLAKE2b":      {Hash: BLAKE2b, Key: []byte("k")},
		"keyed-BLAKE2s":      {Hash: BLAKE2s, Key: []byte("k")},
		"SHA-256+ECDSA-P256": {Hash: SHA256, Signer: sig},
	}
	for want, s := range cases {
		if got := s.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

// verifyBytes checks tag over content through VerifyStream.
func verifyBytes(s Scheme, content, tag []byte) (bool, error) {
	return s.VerifyStream(func(w io.Writer) error {
		_, err := w.Write(content)
		return err
	}, tag)
}

func TestMACTagRoundTrip(t *testing.T) {
	for _, id := range HashIDs() {
		s := Scheme{Hash: id, Key: []byte("attestation-key")}
		tg, err := s.AcquireTagger()
		if err != nil {
			t.Fatal(err)
		}
		content := []byte("some attested region")
		tg.Write(content)
		tag, err := tg.Tag()
		if err != nil {
			t.Fatal(err)
		}
		ok, err := verifyBytes(s, content, tag)
		if err != nil || !ok {
			t.Fatalf("%s: VerifyTag = %v, %v", id, ok, err)
		}
		// Tampered content must fail.
		bad := append([]byte(nil), content...)
		bad[0] ^= 1
		ok, err = verifyBytes(s, bad, tag)
		if err != nil || ok {
			t.Fatalf("%s: VerifyTag accepted tampered content", id)
		}
	}
}

func TestSignatureTagRoundTrip(t *testing.T) {
	for _, sid := range []SignerID{ECDSA224, ECDSA256, ECDSA384, RSA1024} {
		sig, err := NewSigner(sid)
		if err != nil {
			t.Fatal(err)
		}
		s := Scheme{Hash: SHA256, Signer: sig}
		tg, err := s.AcquireTagger()
		if err != nil {
			t.Fatal(err)
		}
		content := []byte("signed attestation report")
		tg.Write(content)
		tag, err := tg.Tag()
		if err != nil {
			t.Fatal(err)
		}
		ok, err := verifyBytes(s, content, tag)
		if err != nil || !ok {
			t.Fatalf("%s: VerifyTag = %v, %v", sid, ok, err)
		}
		bad := append([]byte(nil), content...)
		bad[3] ^= 0x80
		ok, _ = verifyBytes(s, bad, tag)
		if ok {
			t.Fatalf("%s: accepted signature over tampered content", sid)
		}
	}
}

func TestSignerDigestDirect(t *testing.T) {
	for _, sid := range []SignerID{ECDSA256, RSA1024} {
		sg, err := NewSigner(sid)
		if err != nil {
			t.Fatal(err)
		}
		if sg.Name() == "" {
			t.Error("empty signer name")
		}
		d := sha256.Sum256([]byte("digest me"))
		sig, err := sg.Sign(d[:])
		if err != nil {
			t.Fatal(err)
		}
		if err := sg.Verify(d[:], sig); err != nil {
			t.Fatalf("%s: verify: %v", sid, err)
		}
		d2 := sha256.Sum256([]byte("other"))
		if err := sg.Verify(d2[:], sig); err == nil {
			t.Fatalf("%s: verified wrong digest", sid)
		}
	}
}

func TestRSARejectsOddDigestLength(t *testing.T) {
	sg, err := NewSigner(RSA1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sg.Sign(make([]byte, 20)); err == nil {
		t.Fatal("RSA signer accepted 20-byte digest")
	}
}

func TestSignerCacheReturnsSameInstance(t *testing.T) {
	a, err := NewSigner(ECDSA256)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSigner(ECDSA256)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("signer cache returned distinct instances")
	}
	if _, err := NewSigner("DSA-512"); err == nil {
		t.Fatal("unknown signer id should fail")
	}
}

// Property: for every hash id, MAC over a random message split at a
// random point equals MAC over the whole message.
func TestPropertyMACStreaming(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 9))
		msg := make([]byte, 1+rng.IntN(4096))
		for i := range msg {
			msg[i] = byte(rng.Uint32())
		}
		cut := rng.IntN(len(msg) + 1)
		for _, id := range HashIDs() {
			whole, _ := NewMAC(id, []byte("k"))
			whole.Write(msg)
			split, _ := NewMAC(id, []byte("k"))
			split.Write(msg[:cut])
			split.Write(msg[cut:])
			if !bytes.Equal(whole.Sum(nil), split.Sum(nil)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAESCMACMode(t *testing.T) {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i)
	}
	// MAC mode works end to end.
	s := Scheme{Hash: AESCMAC, Key: key}
	if err := s.Validate(); err != nil {
		t.Fatalf("AES-CMAC scheme invalid: %v", err)
	}
	if s.Name() != "AES-CMAC" {
		t.Fatalf("name %q", s.Name())
	}
	tg, err := s.AcquireTagger()
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("attested bytes")
	tg.Write(content)
	tag, err := tg.Tag()
	if err != nil {
		t.Fatal(err)
	}
	if len(tag) != 16 {
		t.Fatalf("tag length %d", len(tag))
	}
	ok, err := verifyBytes(s, content, tag)
	if err != nil || !ok {
		t.Fatalf("verify: %v %v", ok, err)
	}
	bad := append([]byte(nil), content...)
	bad[0] ^= 1
	if ok, _ := verifyBytes(s, bad, tag); ok {
		t.Fatal("tampered content accepted")
	}

	// Hash-and-sign mode must reject AES-CMAC (keyed-only primitive).
	sig, _ := NewSigner(ECDSA256)
	if err := (Scheme{Hash: AESCMAC, Signer: sig}).Validate(); err == nil {
		t.Fatal("AES-CMAC accepted for hash-and-sign")
	}
	// NewHash must not know it.
	if _, err := NewHash(AESCMAC); err == nil {
		t.Fatal("NewHash(AES-CMAC) should fail")
	}
	// Bad key size surfaces.
	if _, err := NewMAC(AESCMAC, []byte("short")); err == nil {
		t.Fatal("short AES key accepted")
	}
	// HashIDs does not list it.
	for _, id := range HashIDs() {
		if id == AESCMAC {
			t.Fatal("AES-CMAC leaked into HashIDs")
		}
	}
}
