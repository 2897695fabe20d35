package experiments

import (
	"testing"
	"time"
)

// TestE16Small runs the zero-stall checkpointing experiment at CI
// scale: every invariant (chain restore, replay-exactly-once, delta
// contents) at 2000 provers, with the timing gate relaxed — at this
// size both encodes are microseconds and scheduler noise dominates;
// the full ≥10x gate runs at bench scale in CI and at 1M in the
// recorded run.
func TestE16Small(t *testing.T) {
	res, err := E16ZeroStallCheckpoint(E16Config{
		Provers:         2000,
		Workers:         4,
		CheckpointEvery: 20 * time.Millisecond,
		MinDeltaSpeedup: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases < 5 || res.PhasesChecked != res.Phases {
		t.Fatalf("the runner checked %d phases of a %d-phase script (want all, of at least 5)", res.PhasesChecked, res.Phases)
	}
	if res.Checkpoints < 2 {
		t.Fatalf("only %d checkpoint files written (want base + final delta at least)", res.Checkpoints)
	}
	if res.DirtyProvers != 2000/100 {
		t.Fatalf("delta phase dirtied %d provers, want %d", res.DirtyProvers, 2000/100)
	}
	if res.DeltaBytes >= res.FullBytes {
		t.Fatalf("1%%-dirty delta (%d B) not smaller than full snapshot (%d B)", res.DeltaBytes, res.FullBytes)
	}
	// The pooled scratch keeps a warm full encode's allocation far
	// under the encoded size — the O(stripe)-not-O(fleet) claim.
	if res.FullAllocBytes > uint64(res.FullBytes) {
		t.Fatalf("full encode allocated %d B for %d encoded B — not streaming", res.FullAllocBytes, res.FullBytes)
	}
	t.Logf("base %.0f ver/s, concurrent %.0f ver/s (ratio %.2f), full %d B, delta %d B, speedup %.0fx",
		res.BaseVerPerSec, res.CkptVerPerSec, res.ConcurrentRatio, res.FullBytes, res.DeltaBytes, res.DeltaSpeedup)
}
