package mem

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"saferatt/internal/sim"
)

func newTestMem(t *testing.T) *Memory {
	t.Helper()
	return New(Config{Size: 1024, BlockSize: 64, ROMBlocks: 2, LogWrites: true})
}

func TestNewLayout(t *testing.T) {
	m := newTestMem(t)
	if m.Size() != 1024 || m.BlockSize() != 64 || m.NumBlocks() != 16 || m.ROMBlocks() != 2 {
		t.Fatalf("layout: size=%d bs=%d n=%d rom=%d", m.Size(), m.BlockSize(), m.NumBlocks(), m.ROMBlocks())
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	cases := []Config{
		{Size: 100, BlockSize: 0},
		{Size: 0, BlockSize: 64},
		{Size: 100, BlockSize: 64}, // not a multiple
		{Size: 128, BlockSize: 64, ROMBlocks: 3},
		{Size: 128, BlockSize: 64, ROMBlocks: -1},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: New(%+v) did not panic", i, cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := newTestMem(t)
	p := []byte("hello, attestable world")
	if err := m.Write(200, p); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(p))
	if err := m.Read(200, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, p) {
		t.Fatalf("read back %q, want %q", got, p)
	}
}

func TestWriteROMDenied(t *testing.T) {
	m := newTestMem(t)
	err := m.Write(10, []byte{1})
	var re *ROMError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *ROMError", err)
	}
}

func TestWriteLockedDenied(t *testing.T) {
	m := newTestMem(t)
	m.Lock(5)
	err := m.Write(5*64+3, []byte{1, 2})
	var le *LockError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LockError", err)
	}
	if le.Block != 5 {
		t.Fatalf("LockError.Block = %d, want 5", le.Block)
	}
	m.Unlock(5)
	if err := m.Write(5*64+3, []byte{1, 2}); err != nil {
		t.Fatalf("after unlock: %v", err)
	}
}

func TestWriteSpanningLockedBlockIsAtomic(t *testing.T) {
	m := newTestMem(t)
	m.Lock(6)
	// Write spans blocks 5 (unlocked) and 6 (locked): nothing stored.
	off := 5*64 + 60
	err := m.Write(off, []byte{9, 9, 9, 9, 9, 9, 9, 9})
	if err == nil {
		t.Fatal("spanning write should fail")
	}
	got := make([]byte, 8)
	_ = m.Read(off, got)
	for _, b := range got {
		if b != 0 {
			t.Fatalf("partial write leaked into memory: %v", got)
		}
	}
}

func TestBoundsErrors(t *testing.T) {
	m := newTestMem(t)
	var be *BoundsError
	if err := m.Write(1020, []byte{1, 2, 3, 4, 5}); !errors.As(err, &be) {
		t.Fatalf("Write out of range: %v", err)
	}
	if err := m.Read(-1, make([]byte, 1)); !errors.As(err, &be) {
		t.Fatalf("Read out of range: %v", err)
	}
	if be.Error() == "" {
		t.Fatal("empty BoundsError message")
	}
}

func TestZeroLengthWriteAlwaysOK(t *testing.T) {
	m := newTestMem(t)
	m.LockAll()
	if err := m.Write(500, nil); err != nil {
		t.Fatalf("zero-length write: %v", err)
	}
}

func TestLockAllUnlockAll(t *testing.T) {
	m := newTestMem(t)
	m.LockAll()
	if got := m.LockedCount(); got != 16 {
		t.Fatalf("LockedCount after LockAll = %d, want 16", got)
	}
	m.UnlockAll()
	// ROM remains effectively locked.
	if got := m.LockedCount(); got != 2 {
		t.Fatalf("LockedCount after UnlockAll = %d, want 2 (ROM)", got)
	}
	if m.Poke(0, 1) == nil || m.Poke(64, 1) == nil {
		t.Fatal("ROM blocks must always refuse writes")
	}
	if err := m.Poke(2*64, 1); err != nil {
		t.Fatalf("block 2 should be writable: %v", err)
	}
}

func TestReadsNeverBlocked(t *testing.T) {
	m := newTestMem(t)
	m.LockAll()
	if err := m.Read(0, make([]byte, 1024)); err != nil {
		t.Fatalf("read of fully locked memory: %v", err)
	}
}

// A successful write is stamped with the clock's reading, block by
// block, in the write log.
func TestLastWriteTimestamps(t *testing.T) {
	now := sim.Time(0)
	m := New(Config{Size: 256, BlockSize: 64, LogWrites: true, Clock: func() sim.Time { return now }})
	now = 100
	if err := m.Write(70, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if log := m.WriteLog(); len(log) != 1 || log[0].At != 100 || log[0].Block != 1 {
		t.Fatalf("write log = %+v, want one write to block 1 at t=100", log)
	}
}

func TestWriteLog(t *testing.T) {
	now := sim.Time(5)
	m := New(Config{Size: 256, BlockSize: 64, Clock: func() sim.Time { return now }, LogWrites: true})
	_ = m.Write(0, []byte{1, 2})
	now = 9
	_ = m.Write(130, []byte{3})
	log := m.WriteLog()
	if len(log) != 2 {
		t.Fatalf("log has %d entries, want 2", len(log))
	}
	if log[0].At != 5 || log[0].Block != 0 || log[0].Len != 2 {
		t.Fatalf("log[0] = %+v", log[0])
	}
	if log[1].At != 9 || log[1].Block != 2 {
		t.Fatalf("log[1] = %+v", log[1])
	}
}

func TestSnapshotRestore(t *testing.T) {
	m := newTestMem(t)
	rng := rand.New(rand.NewPCG(1, 2))
	m.FillRandom(rng)
	snap := m.Snapshot()
	_ = m.Write(500, []byte{0xFF, 0xFF})
	if bytes.Equal(snap, m.Snapshot()) {
		t.Fatal("write did not change memory")
	}
	m.Restore(snap)
	if !bytes.Equal(snap, m.Snapshot()) {
		t.Fatal("restore did not bring memory back")
	}
}

func TestRestorePanicsOnSizeMismatch(t *testing.T) {
	m := newTestMem(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Restore(make([]byte, 10))
}

func TestFillRandomSkipsROM(t *testing.T) {
	m := newTestMem(t)
	m.FillRandom(rand.New(rand.NewPCG(7, 7)))
	rom := make([]byte, 128)
	_ = m.Read(0, rom)
	for _, b := range rom {
		if b != 0 {
			t.Fatal("FillRandom touched ROM")
		}
	}
}

func TestBlockViewAndBlockOf(t *testing.T) {
	m := newTestMem(t)
	_ = m.Write(3*64, bytes.Repeat([]byte{0xAB}, 64))
	b := m.Block(3)
	if len(b) != 64 || b[0] != 0xAB {
		t.Fatalf("Block(3) = len %d first %x", len(b), b[0])
	}
	if m.BlockOf(3*64+63) != 3 || m.BlockOf(4*64) != 4 {
		t.Fatal("BlockOf arithmetic wrong")
	}
}

func TestCheckBlockPanics(t *testing.T) {
	m := newTestMem(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Block(16)
}

// Property: a write either fully succeeds (all bytes land) or fully
// fails (no byte changes). Never partial.
func TestPropertyWriteAtomicity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		m := New(Config{Size: 1024, BlockSize: 64, ROMBlocks: 1, LogWrites: false})
		// Random lock pattern.
		for i := 1; i < 16; i++ {
			if rng.IntN(2) == 0 {
				m.Lock(i)
			}
		}
		before := m.Snapshot()
		off := rng.IntN(1024)
		n := rng.IntN(200)
		if off+n > 1024 {
			n = 1024 - off
		}
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(rng.Uint32()) | 1 // never zero, so changes are visible
		}
		err := m.Write(off, p)
		after := m.Snapshot()
		if err != nil {
			return bytes.Equal(before, after)
		}
		// Success: exactly [off,off+n) changed to p.
		if !bytes.Equal(after[off:off+n], p) {
			return false
		}
		if !bytes.Equal(after[:off], before[:off]) || !bytes.Equal(after[off+n:], before[off+n:]) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: LockedCount equals the number of blocks that refuse a
// write, for random lock/unlock sequences.
func TestPropertyLockedCount(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 2))
		m := New(Config{Size: 2048, BlockSize: 64, ROMBlocks: 3})
		for i := 0; i < 100; i++ {
			b := rng.IntN(m.NumBlocks())
			if rng.IntN(2) == 0 {
				m.Lock(b)
			} else {
				m.Unlock(b)
			}
		}
		n := 0
		for i := 0; i < m.NumBlocks(); i++ {
			if m.Poke(i*64, 1) != nil {
				n++
			}
		}
		return n == m.LockedCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
