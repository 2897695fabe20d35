package experiments

import "testing"

// TestE17Small runs the heterogeneous-fleet experiment's full phase
// structure at a CI-sized fleet: four device classes, a live rotation
// of one class mid-run, grace-window acceptance, past-grace stale
// rejection, unknown-image rejection, exactly-once replay handling
// and checkpoint round-trip are all asserted inside
// E17HeterogeneousFleet itself, so a nil error is the whole check.
func TestE17Small(t *testing.T) {
	res, err := E17HeterogeneousFleet(E17Config{
		Provers:     2000,
		GhostEvery:  100,
		ReplayEvery: 50,
		Workers:     4, // force concurrent ingest even on 1-CPU CI
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases < 8 || res.PhasesChecked != res.Phases {
		t.Fatalf("the runner checked %d phases of a %d-phase script (want all, of at least 8)", res.PhasesChecked, res.Phases)
	}
	if res.Accepted == 0 || res.Laggards == 0 || res.DiffBlocks != 1 {
		t.Fatalf("implausible result: %+v", res)
	}
	// Every non-default binding rides the v4 checkpoint: three of four
	// classes bind away from the default, plus the ghost sample.
	if res.ImageRecords < res.Provers/2 {
		t.Fatalf("checkpoint carries %d image records for %d provers", res.ImageRecords, res.Provers)
	}
}
