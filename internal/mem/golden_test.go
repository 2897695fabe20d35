package mem

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"
)

// newTestGolden builds a 16-block golden image with deterministic
// pseudorandom non-ROM content.
func newTestGolden(t *testing.T) *Golden {
	t.Helper()
	return RandomGolden(1024, 64, 2, rand.New(rand.NewPCG(42, 0)))
}

func TestGoldenGeometry(t *testing.T) {
	g := newTestGolden(t)
	rom := NewShared(g, SharedConfig{}).ROMBlocks()
	if g.Size() != 1024 || g.BlockSize() != 64 || g.NumBlocks() != 16 || rom != 2 {
		t.Fatalf("layout: size=%d bs=%d n=%d rom=%d", g.Size(), g.BlockSize(), g.NumBlocks(), rom)
	}
}

func TestNewGoldenCopiesInput(t *testing.T) {
	raw := make([]byte, 128)
	for i := range raw {
		raw[i] = byte(i)
	}
	g := NewGolden(raw, 64, 0)
	raw[0] = 0xFF
	if g.Bytes()[0] != 0 {
		t.Fatal("NewGolden aliased its input; mutations leaked into the golden image")
	}
}

func TestNewGoldenPanicsOnBadGeometry(t *testing.T) {
	cases := []struct {
		size, bs, rom int
	}{
		{100, 0, 0},
		{0, 64, 0},
		{100, 64, 0}, // not a multiple
		{128, 64, 3},
		{128, 64, -1},
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: NewGolden(%d,%d,%d) did not panic", i, c.size, c.bs, c.rom)
				}
			}()
			NewGolden(make([]byte, c.size), c.bs, c.rom)
		}()
	}
}

func TestSharedReadsGoldenContent(t *testing.T) {
	g := newTestGolden(t)
	m := NewShared(g, SharedConfig{})
	got := make([]byte, g.Size())
	if err := m.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, g.Bytes()) {
		t.Fatal("fresh shared memory does not read back the golden image")
	}
	if m.DirtyBlocks() != 0 {
		t.Fatalf("reads materialized %d blocks", m.DirtyBlocks())
	}
	if m.SharedGolden() != g {
		t.Fatal("SharedGolden does not return the backing image")
	}
}

func TestSharedMaterializeOnWrite(t *testing.T) {
	g := newTestGolden(t)
	m := NewShared(g, SharedConfig{})
	// An 80-byte write at offset 200 straddles blocks 3 and 4.
	p := bytes.Repeat([]byte{0xAB}, 80)
	if err := m.Write(200, p); err != nil {
		t.Fatal(err)
	}
	if m.DirtyBlocks() != 2 {
		t.Fatalf("dirty blocks = %d, want 2", m.DirtyBlocks())
	}
	for i := 0; i < g.NumBlocks(); i++ {
		want := i != 3 && i != 4
		if m.BlockClean(i) != want {
			t.Fatalf("BlockClean(%d) = %v, want %v", i, m.BlockClean(i), want)
		}
	}
	got := make([]byte, len(p))
	if err := m.Read(200, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, p) {
		t.Fatal("written content did not read back")
	}
	// The golden image itself must be untouched.
	if !bytes.Equal(g.Block(3), g.Bytes()[3*64:4*64]) {
		t.Fatal("golden image mutated by a device write")
	}
	if bytes.Contains(g.Bytes(), p[:64]) {
		t.Fatal("device write leaked into the golden image")
	}
}

func TestSharedIsolation(t *testing.T) {
	g := newTestGolden(t)
	a := NewShared(g, SharedConfig{})
	b := NewShared(g, SharedConfig{})
	if err := a.Write(300, []byte("device a was here")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 17)
	if err := b.Read(300, got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, []byte("device a was here")) {
		t.Fatal("write on device a visible through device b")
	}
	if b.DirtyBlocks() != 0 {
		t.Fatal("device b dirtied by device a's write")
	}
}

func TestSharedRestoreDematerializes(t *testing.T) {
	g := newTestGolden(t)
	m := NewShared(g, SharedConfig{})
	snap := m.Snapshot()
	if err := m.Write(200, bytes.Repeat([]byte{0xCC}, 100)); err != nil {
		t.Fatal(err)
	}
	if m.DirtyBlocks() == 0 {
		t.Fatal("write did not materialize")
	}
	gens := make([]uint64, m.NumBlocks())
	for i := range gens {
		gens[i] = m.Generation(i)
	}
	m.Restore(snap)
	if m.DirtyBlocks() != 0 {
		t.Fatalf("restore to golden left %d materialized blocks", m.DirtyBlocks())
	}
	// Restore is still a mutation: every generation must have advanced,
	// even for blocks whose bytes went back to golden, so digest caches
	// re-validate rather than serve stale entries.
	for i := range gens {
		if m.Generation(i) <= gens[i] {
			t.Fatalf("block %d generation did not advance across Restore", i)
		}
	}
	got := make([]byte, g.Size())
	if err := m.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, g.Bytes()) {
		t.Fatal("restore did not recover golden content")
	}
}

func TestSharedRestoreToNonGolden(t *testing.T) {
	g := newTestGolden(t)
	m := NewShared(g, SharedConfig{})
	want := make([]byte, g.Size())
	copy(want, g.Bytes())
	copy(want[512:], "divergent state") // fully inside block 8
	m.Restore(want)
	got := m.Snapshot()
	if !bytes.Equal(got, want) {
		t.Fatal("restore to non-golden state did not stick")
	}
	if m.DirtyBlocks() != 1 {
		t.Fatalf("dirty blocks = %d, want 1 (only the divergent block)", m.DirtyBlocks())
	}
}

func TestSnapshotIntoReusesBuffer(t *testing.T) {
	m := New(Config{Size: 1024, BlockSize: 64})
	m.FillRandom(rand.New(rand.NewPCG(7, 0)))
	buf := make([]byte, 0, 2048)
	s1 := m.SnapshotInto(buf)
	if &s1[0] != &buf[:1][0] {
		t.Fatal("SnapshotInto did not reuse the caller's buffer")
	}
	if !bytes.Equal(s1, m.Snapshot()) {
		t.Fatal("SnapshotInto content differs from Snapshot")
	}
	// Undersized destination must still work (reallocates).
	s2 := m.SnapshotInto(make([]byte, 0, 16))
	if !bytes.Equal(s2, s1) {
		t.Fatal("SnapshotInto with small buffer produced wrong content")
	}
}

func TestSharedSnapshotMatchesFlat(t *testing.T) {
	g := newTestGolden(t)
	m := NewShared(g, SharedConfig{})
	if err := m.Write(130, []byte("mutation")); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, g.Size())
	copy(want, g.Bytes())
	copy(want[130:], "mutation")
	if !bytes.Equal(m.Snapshot(), want) {
		t.Fatal("COW snapshot differs from expected flat content")
	}
}

// TestFillRandomBackingIndependent pins that a per-device FillRandom and
// a fleet's RandomGolden give the same bytes for a given seed — device
// provisioning must not depend on which of the two built the image.
// Block sizes that are not a multiple of 8 make the 8-byte draws
// straddle blocks.
func TestFillRandomBackingIndependent(t *testing.T) {
	cases := []struct {
		size, bs, rom int
	}{
		{1024, 64, 2},
		{100, 20, 0}, // 4-byte tail
		{100, 20, 1}, // the fill starts at offset 20, not 8-aligned
		{960, 64, 0},
	}
	for _, c := range cases {
		m := New(Config{Size: c.size, BlockSize: c.bs, ROMBlocks: c.rom})
		m.FillRandom(rand.New(rand.NewPCG(9, 1)))
		g := RandomGolden(c.size, c.bs, c.rom, rand.New(rand.NewPCG(9, 1)))
		if !bytes.Equal(m.Snapshot(), g.Bytes()) {
			t.Fatalf("size %d bs %d rom %d: FillRandom content differs from RandomGolden", c.size, c.bs, c.rom)
		}
		if d, want := m.DirtyBlocks(), m.NumBlocks()-c.rom; d != want {
			t.Fatalf("size %d bs %d rom %d: FillRandom materialized %d blocks, want %d", c.size, c.bs, c.rom, d, want)
		}
	}
}

func TestSharedROMStillGuarded(t *testing.T) {
	g := newTestGolden(t)
	m := NewShared(g, SharedConfig{})
	var romErr *ROMError
	if err := m.Write(10, []byte{1}); !errors.As(err, &romErr) {
		t.Fatalf("write into ROM block on shared memory: %v, want a ROMError", err)
	}
}
