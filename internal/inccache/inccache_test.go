package inccache

import (
	"bytes"
	"crypto/sha256"
	"math/rand/v2"
	"sync"
	"testing"

	"saferatt/internal/mem"
	"saferatt/internal/suite"
)

func newMemory(t *testing.T) *mem.Memory {
	t.Helper()
	m := mem.New(mem.Config{Size: 1024, BlockSize: 64, ROMBlocks: 1})
	m.FillRandom(rand.New(rand.NewPCG(3, 3)))
	return m
}

func sha(b []byte) []byte {
	s := sha256.Sum256(b)
	return s[:]
}

func TestDigestHashMapping(t *testing.T) {
	if DigestHash(suite.SHA256) != suite.SHA256 {
		t.Fatal("SHA256 should digest with itself")
	}
	// AES-CMAC is keyed-only: per-block digests fall back to SHA-256.
	if DigestHash(suite.AESCMAC) != suite.SHA256 {
		t.Fatal("AESCMAC should fall back to SHA-256 digests")
	}
}

func TestMemCacheDigestMatchesDirectHash(t *testing.T) {
	m := newMemory(t)
	c := NewMem(m, suite.SHA256)
	for b := 0; b < m.NumBlocks(); b++ {
		if got, want := c.Digest(b), sha(m.Block(b)); !bytes.Equal(got, want) {
			t.Fatalf("block %d digest mismatch", b)
		}
	}
}

func TestMemCacheHitsAndMisses(t *testing.T) {
	m := newMemory(t)
	c := NewMem(m, suite.SHA256)
	c.Digest(2)
	c.Digest(2)
	c.Digest(3)
	s := c.Stats()
	if s.Misses != 2 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want 2 misses 1 hit", s)
	}
}

// The stale-cache regression this package exists to prevent: a write
// between two measurements of the same block MUST change the served
// digest. If any mem mutation path forgot to bump the generation, the
// second Digest call would return the pre-write (clean) digest and a
// verifier would accept an infected block.
func TestStaleCacheRegressionWrite(t *testing.T) {
	m := newMemory(t)
	c := NewMem(m, suite.SHA256)
	clean := append([]byte(nil), c.Digest(5)...) // populate the cache
	if err := m.WriteBlock(5, bytes.Repeat([]byte{0xEB}, 64)); err != nil {
		t.Fatal(err)
	}
	got := c.Digest(5)
	if bytes.Equal(got, clean) {
		t.Fatal("stale digest served after write: infection would be masked")
	}
	if want := sha(m.Block(5)); !bytes.Equal(got, want) {
		t.Fatal("recomputed digest does not match new content")
	}
}

func TestStaleCacheRegressionRestore(t *testing.T) {
	m := newMemory(t)
	snap := m.Snapshot()
	c := NewMem(m, suite.SHA256)
	_ = m.WriteBlock(5, bytes.Repeat([]byte{0xEB}, 64))
	infected := append([]byte(nil), c.Digest(5)...)
	m.Restore(snap) // out-of-band healing must also invalidate
	if bytes.Equal(c.Digest(5), infected) {
		t.Fatal("stale digest served after Restore")
	}
	if want := sha(m.Block(5)); !bytes.Equal(c.Digest(5), want) {
		t.Fatal("digest after Restore does not match restored content")
	}
}

func TestStaleCacheRegressionFillRandom(t *testing.T) {
	m := newMemory(t)
	c := NewMem(m, suite.SHA256)
	old := append([]byte(nil), c.Digest(5)...)
	m.FillRandom(rand.New(rand.NewPCG(9, 9)))
	if bytes.Equal(c.Digest(5), old) {
		t.Fatal("stale digest served after FillRandom")
	}
}

// A denied write changes nothing, so the cache may keep serving the old
// digest — and must still serve the correct one.
func TestDeniedWriteKeepsValidCache(t *testing.T) {
	m := newMemory(t)
	m.Lock(5)
	c := NewMem(m, suite.SHA256)
	c.Digest(5)
	if err := m.WriteBlock(5, make([]byte, 64)); err == nil {
		t.Fatal("locked write succeeded")
	}
	if !bytes.Equal(c.Digest(5), sha(m.Block(5))) {
		t.Fatal("cache wrong after denied write")
	}
	s := c.Stats()
	if s.Hits != 1 {
		t.Fatalf("denied write evicted a valid entry: %+v", s)
	}
}

func TestImageCacheLazyAndStable(t *testing.T) {
	m := newMemory(t)
	ref := m.Snapshot()
	c := NewImage(ref, 64, suite.SHA256)
	if c.NumBlocks() != 16 || c.BlockSize() != 64 || c.Hash() != suite.SHA256 {
		t.Fatalf("geometry: %d blocks of %d", c.NumBlocks(), c.BlockSize())
	}
	d1 := append([]byte(nil), c.Digest(4)...)
	if !bytes.Equal(d1, sha(ref[4*64:5*64])) {
		t.Fatal("image digest mismatch")
	}
	d2, err := c.DigestOK(4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d2) {
		t.Fatal("DigestOK disagrees with Digest")
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("image stats = %+v, want 1 miss 1 hit", s)
	}
}

func TestNewImagePanicsOnMisalignedRef(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewImage(make([]byte, 100), 64, suite.SHA256)
}

func TestZeroDigest(t *testing.T) {
	want := sha(make([]byte, 64))
	if !bytes.Equal(ZeroDigest(suite.SHA256, 64), want) {
		t.Fatal("ZeroDigest wrong")
	}
	// Second call serves the process-wide cache; must be identical.
	if !bytes.Equal(ZeroDigest(suite.SHA256, 64), want) {
		t.Fatal("cached ZeroDigest wrong")
	}
}

func TestDigestOfAppends(t *testing.T) {
	content := []byte("block content")
	prefix := []byte{1, 2, 3}
	out := DigestOf(suite.SHA256, content, append([]byte(nil), prefix...))
	if !bytes.Equal(out[:3], prefix) || !bytes.Equal(out[3:], sha(content)) {
		t.Fatal("DigestOf did not append the digest")
	}
}

// Caches are shared across parallel trial workers; this exercises both
// cache kinds concurrently under the race detector.
func TestConcurrentAccess(t *testing.T) {
	m := newMemory(t)
	mc := NewMem(m, suite.SHA256)
	ic := NewImage(m.Snapshot(), 64, suite.SHA256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 0))
			for i := 0; i < 500; i++ {
				b := rng.IntN(16)
				mc.Digest(b)
				ic.Digest(b)
				ZeroDigest(suite.SHA256, 64)
			}
		}(uint64(w))
	}
	wg.Wait()
	// Image blocks digest exactly once no matter the interleaving.
	if s := ic.Stats(); s.Misses != 16 {
		t.Fatalf("image misses = %d, want 16", s.Misses)
	}
}
