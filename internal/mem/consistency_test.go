package mem

import (
	"testing"

	"saferatt/internal/sim"
)

// buildCoverage covers blocks 0..n-1 sequentially at times start,
// start+step, ...
func buildCoverage(n int, start sim.Time, step sim.Duration) *Coverage {
	c := NewCoverage(n)
	for i := 0; i < n; i++ {
		c.CoveredAt[i] = start.Add(sim.Duration(i) * step)
	}
	return c
}

func TestConsistentNoWrites(t *testing.T) {
	c := buildCoverage(4, 100, 10)
	if !ConsistentAt(nil, c, 500) {
		t.Fatal("no writes should always be consistent")
	}
}

// Paper Fig. 4: write at A (before t_s) or D (after t_r) never breaks
// consistency; a write at B or C (inside the computation) breaks
// consistency with times on the far side of the write.
func TestFigure4Semantics(t *testing.T) {
	// Blocks covered at t=100,110,120,130 (t_s=100, t_e=130).
	c := buildCoverage(4, 100, 10)

	// A: write to block 2 before t_s.
	logA := []Write{{At: 50, Block: 2}}
	if !ConsistentAt(logA, c, 130) {
		t.Error("write at A (before t_s) must not break consistency at t_e")
	}

	// D: write to block 2 after the probe time.
	logD := []Write{{At: 500, Block: 2}}
	if !ConsistentAt(logD, c, 130) {
		t.Error("write at D (after t_e) must not break consistency at t_e")
	}

	// B: block 2 written at t=105, covered at t=120. The measurement
	// saw the post-write value, so it is consistent with memory at
	// t >= 120 but NOT with memory at t_s=100.
	logB := []Write{{At: 105, Block: 2}}
	if ConsistentAt(logB, c, 100) {
		t.Error("write at B must break consistency with t_s")
	}
	// Covered at 120, write at 105 < 120; probing at 130: interval
	// (120,130) contains no write -> consistent.
	if !ConsistentAt(logB, c, 130) {
		t.Error("write at B must not break consistency with t_e")
	}

	// C: block 1 covered at t=110, then written at t=115. Measurement
	// reflects the pre-write value: consistent with t<=115's early side
	// (t in [?,115)) but not with t_e.
	logC := []Write{{At: 115, Block: 1}}
	if ConsistentAt(logC, c, 130) {
		t.Error("write at C must break consistency with t_e")
	}
	if !ConsistentAt(logC, c, 110) {
		t.Error("write at C must not break consistency with the cover instant")
	}
}

func TestUncoveredBlocksIgnored(t *testing.T) {
	c := NewCoverage(4)
	c.CoveredAt[0] = 100
	// Block 3 never covered; writes to it are irrelevant.
	log := []Write{{At: 105, Block: 3}}
	if !ConsistentAt(log, c, 200) {
		t.Fatal("write to uncovered block must not break consistency")
	}
	if c.CoveredAt[3] >= 0 {
		t.Fatal("block 3 should read as uncovered")
	}
}

func TestBoundaryWritesDoNotBreak(t *testing.T) {
	c := buildCoverage(2, 100, 10)
	// Write exactly at the cover instant or exactly at probe instant:
	// boundary, not strictly inside -> consistent by our convention.
	log := []Write{{At: 100, Block: 0}, {At: 200, Block: 1}}
	if !ConsistentAt(log, c, 200) {
		t.Fatal("boundary writes must not break consistency")
	}
}

func TestConsistencyWindow(t *testing.T) {
	c := buildCoverage(2, 100, 10) // covered at 100 and 110
	log := []Write{{At: 105, Block: 1}}
	// Block 1 covered at 110, written at 105 (before coverage).
	// Probes: 90 -> interval (90,110) contains 105: inconsistent.
	//         107 -> (107,110) does not contain 105: consistent.
	//         120 -> (110,120): consistent.
	for probe, want := range map[sim.Time]bool{90: false, 107: true, 120: true} {
		if got := ConsistentAt(log, c, probe); got != want {
			t.Fatalf("consistent at %v = %v, want %v", probe, got, want)
		}
	}
}

func TestAllLockWindowIsWholeInterval(t *testing.T) {
	// All-Lock: no writes possible during [t_s,t_e]; any write lands
	// before t_s or after release. Consistency must hold across the
	// whole computation interval.
	c := buildCoverage(8, 1000, 5) // t_s=1000, t_e=1035
	log := []Write{{At: 900, Block: 3}, {At: 2000, Block: 5}}
	for probe := sim.Time(1000); probe <= 1035; probe += 5 {
		if !ConsistentAt(log, c, probe) {
			t.Fatalf("All-Lock style log inconsistent at %v", probe)
		}
	}
}
