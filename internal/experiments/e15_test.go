package experiments

import "testing"

// TestE15Small runs the scale experiment's full phase structure at a
// CI-sized fleet: every invariant E15 certifies at a million provers
// (zero verification failures, counts conservation, exactly-once
// replay rejection, full enrollment) is asserted inside
// E15MillionProvers itself, so a nil error is the whole check.
func TestE15Small(t *testing.T) {
	res, err := E15MillionProvers(E15Config{
		Provers:     2000,
		SeedEvery:   8,
		ReplayEvery: 50,
		Workers:     4, // force concurrent ingest even on 1-CPU CI
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases < 4 || res.PhasesChecked != res.Phases {
		t.Fatalf("the runner checked %d phases of a %d-phase script (want all, of at least 4)", res.PhasesChecked, res.Phases)
	}
	if res.Accepted == 0 || res.Enrolled != 2000 {
		t.Fatalf("implausible result: %+v", res)
	}
	// Bounded dedup state: a second full round must cost (almost)
	// nothing per prover. The threshold is loose — GC noise — but an
	// O(reports) regression costs tens of bytes per prover and trips it.
	if res.Round2BytesPerProver > 8 {
		t.Fatalf("second round grew state by %.1f B/prover — dedup state is not bounded",
			res.Round2BytesPerProver)
	}
}
