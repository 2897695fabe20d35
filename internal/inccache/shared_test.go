package inccache

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"saferatt/internal/mem"
	"saferatt/internal/suite"
)

func newGolden(t *testing.T) *mem.Golden {
	t.Helper()
	return mem.RandomGolden(1024, 64, 1, rand.New(rand.NewPCG(5, 5)))
}

func TestSharedImageInterned(t *testing.T) {
	g := newGolden(t)
	a := SharedImage(g, suite.SHA256)
	b := SharedImage(g, suite.SHA256)
	if a != b {
		t.Fatal("same (golden, hash) produced distinct caches")
	}
	if SharedImage(g, suite.BLAKE2s) == a {
		t.Fatal("different hash shares a cache")
	}
	g2 := newGolden(t)
	if SharedImage(g2, suite.SHA256) == a {
		t.Fatal("different golden shares a cache")
	}
}

func TestMemCacheServesCleanBlocksFromGolden(t *testing.T) {
	g := newGolden(t)
	shared := SharedImage(g, suite.SHA256)
	before := shared.Stats()

	d1 := mem.NewShared(g, mem.SharedConfig{})
	d2 := mem.NewShared(g, mem.SharedConfig{})
	c1 := NewMem(d1, suite.SHA256)
	c2 := NewMem(d2, suite.SHA256)

	for b := 0; b < g.NumBlocks(); b++ {
		if got, want := c1.Digest(b), sha(g.Block(b)); !bytes.Equal(got, want) {
			t.Fatalf("device 1 block %d digest mismatch", b)
		}
		if got, want := c2.Digest(b), sha(g.Block(b)); !bytes.Equal(got, want) {
			t.Fatalf("device 2 block %d digest mismatch", b)
		}
	}
	after := shared.Stats()
	// Two devices covering 16 blocks each must cost at most 16 golden
	// computations host-wide — that is the fleet amortization.
	if computed := after.Misses - before.Misses; computed > uint64(g.NumBlocks()) {
		t.Fatalf("golden cache computed %d digests for 2 devices x %d blocks", computed, g.NumBlocks())
	}
	if s := c1.Stats(); s.Shared != uint64(g.NumBlocks()) || s.Misses != 0 {
		t.Fatalf("device 1 stats = %+v, want all blocks served shared", s)
	}
}

// TestMemCacheDirtyBlockNotServedFromGolden is the stale-cache
// regression for the shared path: once a device writes a block, its
// digest must come from the live content, and after a restore that
// recovers golden content the shared digest becomes valid again.
func TestMemCacheDirtyBlockNotServedFromGolden(t *testing.T) {
	g := newGolden(t)
	d := mem.NewShared(g, mem.SharedConfig{})
	c := NewMem(d, suite.SHA256)
	clean := d.Snapshot()

	if err := d.Write(3*64+5, []byte("infection")); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Digest(3), sha(d.Block(3)); !bytes.Equal(got, want) {
		t.Fatal("dirty block digest does not reflect live content")
	}
	if bytes.Equal(c.Digest(3), sha(g.Block(3))) {
		t.Fatal("dirty block digest equals golden digest; write would be masked")
	}

	d.Restore(clean)
	if got, want := c.Digest(3), sha(g.Block(3)); !bytes.Equal(got, want) {
		t.Fatal("restored block digest does not match golden again")
	}
	if d.DirtyBlocks() != 0 {
		t.Fatal("restore did not dematerialize")
	}
}

// TestMemCacheGoldenRuleIsExact pins the golden rule: a written block is
// served the golden digest only when its content is golden again, byte
// for byte. Anything else is hashed, and every digest is the digest of
// the live content. The rule holds over New's all-zero golden too: a
// block written back to zeros is golden again.
func TestMemCacheGoldenRuleIsExact(t *testing.T) {
	const b = 3
	payload := func(*mem.Golden) []byte { return bytes.Repeat([]byte{0xEB}, 64) }
	golden := func(g *mem.Golden) []byte { return g.Block(b) }
	lastByteOff := func(g *mem.Golden) []byte {
		p := append([]byte(nil), g.Block(b)...)
		p[len(p)-1] ^= 1
		return p
	}
	const shared, miss = "shared", "miss"
	type step struct {
		write  func(*mem.Golden) []byte // written to block b; nil restores the whole golden image
		served string                   // how the next Digest(b) is served
		dirty  int                      // materialized blocks afterwards
	}
	for _, tc := range []struct {
		name  string
		zero  bool // mem.New: the memory reads through an all-zero golden
		steps []step
	}{
		{"a payload, then golden again", false, []step{{payload, miss, 1}, {golden, shared, 1}}},
		{"golden but for the last byte", false, []step{{lastByteOff, miss, 1}}},
		{"a payload over a restored block", false, []step{{payload, miss, 1}, {golden, shared, 1}, {payload, miss, 1}}},
		{"Memory.Restore dematerializes", false, []step{{payload, miss, 1}, {nil, shared, 0}, {payload, miss, 1}}},
		{"New: a payload, then zeros again", true, []step{{payload, miss, 1}, {golden, shared, 1}, {lastByteOff, miss, 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := newGolden(t)
			m := mem.NewShared(g, mem.SharedConfig{})
			if tc.zero {
				m = mem.New(mem.Config{Size: g.Size(), BlockSize: g.BlockSize(), ROMBlocks: 1})
				g = m.SharedGolden()
			}
			c := NewMem(m, suite.SHA256)
			for i, s := range tc.steps {
				if s.write == nil {
					m.Restore(g.Bytes())
				} else if err := m.WriteBlock(b, s.write(g)); err != nil {
					t.Fatal(err)
				}
				before := c.Stats()
				if got, want := c.Digest(b), sha(m.Block(b)); !bytes.Equal(got, want) {
					t.Fatalf("step %d: digest is not the live content's", i)
				}
				after := c.Stats()
				served := fmt.Sprintf("%+v", after)
				switch {
				case after.Shared == before.Shared+1 && after.Misses == before.Misses:
					served = shared
				case after.Misses == before.Misses+1 && after.Shared == before.Shared:
					served = miss
				}
				if served != s.served {
					t.Fatalf("step %d: served %s, want %s", i, served, s.served)
				}
				if d := m.DirtyBlocks(); d != s.dirty {
					t.Fatalf("step %d: %d materialized blocks, want %d", i, d, s.dirty)
				}
				// Unchanged, the block is served without hashing next
				// time: a clean one from the golden, a written one — the
				// golden rule's included — from its own stamped digest.
				c.Digest(b)
				want := after
				if s.dirty == 0 {
					want.Shared++
				} else {
					want.Hits++
				}
				if again := c.Stats(); again != want {
					t.Fatalf("step %d: unchanged block served as %+v, want %+v", i, again, want)
				}
			}
		})
	}
}
