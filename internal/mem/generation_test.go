package mem

import (
	"math/rand/v2"
	"testing"
)

// Every mutation path must bump the touched blocks' generations: digest
// caches key on them, and a path that forgot would let a stale cached
// digest mask malware (see internal/inccache).

func TestGenerationBumpsOnWrite(t *testing.T) {
	m := newTestMem(t)
	if g := m.Generation(5); g != 0 {
		t.Fatalf("fresh memory generation = %d, want 0", g)
	}
	if err := m.Write(5*64+10, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if g := m.Generation(5); g != 1 {
		t.Fatalf("generation after write = %d, want 1", g)
	}
	if g := m.Generation(4); g != 0 {
		t.Fatalf("untouched neighbor generation = %d, want 0", g)
	}
}

func TestGenerationBumpsAllSpannedBlocks(t *testing.T) {
	m := newTestMem(t)
	// Write spanning blocks 5 and 6.
	if err := m.Write(5*64+60, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if m.Generation(5) != 1 || m.Generation(6) != 1 {
		t.Fatalf("spanned blocks generations = %d, %d, want 1, 1",
			m.Generation(5), m.Generation(6))
	}
}

func TestGenerationBumpsOnWriteBlockAndPoke(t *testing.T) {
	m := newTestMem(t)
	if err := m.WriteBlock(3, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := m.Poke(3*64+7, 0xAA); err != nil {
		t.Fatal(err)
	}
	if g := m.Generation(3); g != 2 {
		t.Fatalf("generation after WriteBlock+Poke = %d, want 2", g)
	}
}

func TestGenerationNotBumpedOnDeniedWrite(t *testing.T) {
	m := newTestMem(t)
	m.Lock(7)
	if err := m.Write(7*64, []byte{1}); err == nil {
		t.Fatal("locked write succeeded")
	}
	if g := m.Generation(7); g != 0 {
		t.Fatalf("denied write bumped generation to %d", g)
	}
	if err := m.Write(10, []byte{1}); err == nil { // ROM
		t.Fatal("ROM write succeeded")
	}
	if g := m.Generation(0); g != 0 {
		t.Fatalf("denied ROM write bumped generation to %d", g)
	}
}

func TestGenerationBumpsOnRestoreAndFillRandom(t *testing.T) {
	m := newTestMem(t)
	snap := m.Snapshot()
	m.Restore(snap)
	// Restore may not change content, but it must still invalidate: the
	// cache cannot tell, so every block bumps.
	for b := 0; b < m.NumBlocks(); b++ {
		if m.Generation(b) != 1 {
			t.Fatalf("block %d generation after Restore = %d, want 1", b, m.Generation(b))
		}
	}
	m.FillRandom(rand.New(rand.NewPCG(1, 1)))
	for b := m.ROMBlocks(); b < m.NumBlocks(); b++ {
		if m.Generation(b) != 2 {
			t.Fatalf("block %d generation after FillRandom = %d, want 2", b, m.Generation(b))
		}
	}
	// FillRandom skips ROM and must not bump it.
	if m.Generation(0) != 1 {
		t.Fatalf("ROM generation after FillRandom = %d, want 1", m.Generation(0))
	}
}

func TestWriteLogBoundedRing(t *testing.T) {
	m := New(Config{Size: 256, BlockSize: 64, LogWrites: true, LogLimit: 3})
	for i := 0; i < 5; i++ {
		if err := m.Poke(i%4*64, byte(i)); err != nil {
			t.Fatal(err)
		}
	}
	log := m.WriteLog()
	if len(log) != 3 {
		t.Fatalf("log has %d entries, want 3", len(log))
	}
	// Oldest two dropped: blocks 2, 3, 0 remain, in chronological order.
	for i, wantBlock := range []int{2, 3, 0} {
		if log[i].Block != wantBlock {
			t.Fatalf("log[%d].Block = %d, want %d (log %+v)", i, log[i].Block, wantBlock, log)
		}
	}
}

func TestWriteLogUnboundedByDefault(t *testing.T) {
	m := New(Config{Size: 256, BlockSize: 64, LogWrites: true})
	for i := 0; i < 100; i++ {
		_ = m.Poke(0, byte(i))
	}
	if len(m.WriteLog()) != 100 {
		t.Fatalf("unbounded log: %d entries", len(m.WriteLog()))
	}
}

func TestWriteLogDisabledCostsNothing(t *testing.T) {
	m := New(Config{Size: 256, BlockSize: 64})
	_ = m.Poke(0, 1)
	if m.WriteLog() != nil {
		t.Fatal("log recorded with LogWrites off")
	}
}

func TestNegativeLogLimitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Size: 256, BlockSize: 64, LogWrites: true, LogLimit: -1})
}

// Restore is content-only re-provisioning: it must not disturb the
// protection state (locks) or the write log.
func TestRestorePreservesLocksAndFaults(t *testing.T) {
	m := newTestMem(t)
	snap := m.Snapshot()
	m.Lock(5)
	_ = m.Write(5*64, []byte{1}) // denied
	logLen := len(m.WriteLog())
	m.Restore(snap)
	if len(m.WriteLog()) != logLen {
		t.Fatal("Restore changed the write log")
	}
	// The lock still holds after restore.
	if err := m.Write(5*64, []byte{1}); err == nil {
		t.Fatal("lock not enforced after Restore")
	}
}

// Snapshot is a copy, not a view: later writes must not leak into it.
func TestSnapshotIsIsolatedCopy(t *testing.T) {
	m := newTestMem(t)
	snap := m.Snapshot()
	if err := m.Poke(500, 0xFF); err != nil {
		t.Fatal(err)
	}
	if snap[500] == 0xFF {
		t.Fatal("snapshot aliases live memory")
	}
}
