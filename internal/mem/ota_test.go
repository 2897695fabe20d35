package mem

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

func otaGoldens(t *testing.T) (*Golden, *Golden, []int) {
	t.Helper()
	g1 := RandomGolden(4096, 256, 1, rand.New(rand.NewPCG(21, 21)))
	b2 := append([]byte(nil), g1.Bytes()...)
	// Change two non-ROM blocks.
	copy(b2[3*256:4*256], bytes.Repeat([]byte{0xAB}, 256))
	copy(b2[9*256:10*256], bytes.Repeat([]byte{0xCD}, 256))
	return g1, NewGolden(b2, 256, 1), []int{3, 9}
}

func TestGoldenDiffBlocks(t *testing.T) {
	g1, g2, want := otaGoldens(t)
	got := g2.DiffBlocks(g1)
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("DiffBlocks = %v, want %v", got, want)
	}
	if d := g1.DiffBlocks(g1); d != nil {
		t.Fatalf("self-diff = %v", d)
	}
	// No old image (or a geometry mismatch) means a full reflash.
	if d := g2.DiffBlocks(nil); len(d) != g2.NumBlocks() {
		t.Fatalf("nil diff covers %d blocks, want %d", len(d), g2.NumBlocks())
	}
	other := NewGolden(make([]byte, 4096), 512, 1)
	if d := g2.DiffBlocks(other); len(d) != g2.NumBlocks() {
		t.Fatalf("geometry-mismatch diff covers %d blocks", len(d))
	}
}
