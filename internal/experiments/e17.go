package experiments

import (
	"cmp"
	"fmt"
	"io"
	"runtime"

	"saferatt/internal/core"
	"saferatt/internal/mem"
	"saferatt/internal/rattd"
	"saferatt/internal/verifier"
)

// E17 is the heterogeneous-fleet run: one rattd shard serving a
// registry of per-class golden images, with a live rotation of one
// class mid-run. Image heterogeneity and an OTA update in flight must
// cost nothing in correctness, and the script's declarations say what
// that means: every report verifies against its own class's image;
// inside the rotation's grace window devices still on the retired
// version verify against the pinned predecessor; past grace the retired
// version is a distinct stale-image reject — never a spurious pass — that
// leaves its counter unconsumed, so laggards that finish flashing attest
// clean with the very counters that were refused. E17 also records
// steady-state multi-image cost against a single-image daemon (the
// benchmark gate in CI pins that ratio, and 0 allocs/op).
type E17Config struct {
	// Provers is the fleet size; default 100_000.
	Provers int
	// Workers is the ingest concurrency; default GOMAXPROCS.
	Workers int
	// GhostEvery sends one unknown-image report per n-th index from a
	// fresh prover; default 1000. ReplayEvery replays the round-one
	// bundle of every n-th prover; default 1000.
	GhostEvery  int
	ReplayEvery int
	// Logf, if set, receives phase progress.
	Logf func(format string, args ...any)
}

// e17Grace is the rotation grace window, in registry epochs.
const e17Grace = 1

// E17Result is the heterogeneous-fleet run's outcome.
type E17Result struct {
	Provers, Classes, Workers, Stripes, History int
	Grace                                       uint64
	Enrolled                                    int
	// Phases the script holds, and how many the runner checked.
	Phases, PhasesChecked int

	// RotatedClass is the class whose image rotated mid-run;
	// DiffBlocks the OTA's changed-block count (out of TotalBlocks).
	RotatedClass            string
	DiffBlocks, TotalBlocks int
	// Laggards is the number of rotated-class devices that attested
	// against the pinned predecessor during grace and were refused
	// once each past grace before catching up.
	Laggards int

	// Reports ingested / accepted / rejected / replays, server-side.
	Sent, Accepted, Rejected, Replays uint64
	// StaleRejected / UnknownRejected / ReplaySent break the rejects
	// down by cause (registry probe counters + the deliberate replay
	// volume); CatchupAccepted counts the laggards' post-flash
	// re-submissions of previously-refused counters.
	StaleRejected, UnknownRejected, ReplaySent, CatchupAccepted uint64

	// WallNS is the workers' time over the two full collection rounds
	// (enrollment through grace); VerPerSec is accepted verifications
	// over it.
	WallNS    int64
	VerPerSec float64

	// MultiNSPerReport / SingleNSPerReport time one steady-state
	// round through the multi-image registry vs a single-image control
	// daemon at identical volume; Ratio is multi over single.
	MultiNSPerReport, SingleNSPerReport, Ratio float64

	// CheckpointBytes is the encoded checkpoint; ImageRecords the
	// number of non-default bindings it carries.
	CheckpointBytes, ImageRecords int
}

// e17Classes names the device classes, one golden image each; prover i
// belongs to class i mod len(e17Classes).
var e17Classes = [...]string{"sensor", "actuator", "gateway", "camera"}

// E17HeterogeneousFleet runs the experiment: the script below, with the
// rotation, the epoch advance and the single-image control arm as the
// steps only E17 takes.
func E17HeterogeneousFleet(cfg E17Config) (*E17Result, error) {
	provers, workers := cmp.Or(cfg.Provers, 100_000), cmp.Or(cfg.Workers, runtime.GOMAXPROCS(0))
	const classes = len(e17Classes)
	const h = fleetHistory

	// Registry: one golden per class, golden-backed so rotation takes
	// the derived digest-cache path; class 0 is the fleet default.
	// KeepEpochs is the daemon's: a smaller epoch cache would thrash on
	// multi-counter histories.
	set := verifier.NewImageSet(verifier.ImageSetConfig{Grace: e17Grace, KeepEpochs: rattd.KeepEpochs})
	goldens := make([]*mem.Golden, classes)
	for c := range goldens {
		goldens[c] = mem.NewGolden(fleetImage(c), fleetBlock, 1)
		if _, err := set.Add(e17Classes[c], verifier.ImageOfGolden(goldens[c])); err != nil {
			return nil, err
		}
	}
	rig, err := newFleetRig(provers, workers, rattd.Config{Images: set}, cfg.Logf)
	if err != nil {
		return nil, err
	}
	defer rig.srv.Close()
	ctl, err := serveFleet(rattd.Config{Ref: goldens[0].Bytes()}) // the single-image control arm
	if err != nil {
		return nil, err
	}
	defer ctl.Close()

	// The OTA: one block of the rotated class's image changes.
	const rot = 1
	rotName, v1bytes := e17Classes[rot], goldens[rot].Bytes()
	v2bytes := append([]byte(nil), v1bytes...)
	for j := 2 * fleetBlock; j < 3*fleetBlock; j++ {
		v2bytes[j] ^= 0xA5
	}
	v2 := mem.NewGolden(v2bytes, fleetBlock, 1)
	res := &E17Result{
		Provers: provers, Classes: classes, Workers: workers,
		Stripes: rig.srv.Stripes(), History: h, Grace: e17Grace,
		RotatedClass: rotName, TotalBlocks: goldens[rot].NumBlocks(), DiffBlocks: len(v2.DiffBlocks(goldens[rot])),
	}

	// Who: prover i is of class i mod classes; laggards are the odd half
	// of the rotated class and keep running the retired image through
	// the grace window.
	class := func(i int) int { return i % classes }
	laggard := func(i int) bool { return class(i) == rot && (i/classes)%2 == 1 }
	updated := func(i int) bool { return class(i) == rot && !laggard(i) }
	others := func(i int) bool { return class(i) != rot }
	// Under which image id: its class's name, or one pinned version of
	// the rotated class.
	byClass := func(i int) string { return e17Classes[class(i)] }
	oldID, newID := rotName+"@v1", ""
	oldPinned := func(int) string { return oldID }
	newPinned := func(int) string { return newID }
	// What: counters lo..hi measured by each prover over its class's
	// image, the rotated class holding rotated (v1bytes or v2bytes).
	history := func(rotated []byte, lo, hi uint64) func(int) ([]core.Report, error) {
		per := make([]func(int) ([]core.Report, error), classes)
		for c := range per {
			per[c] = rig.bundle(goldens[c].Bytes(), lo, hi)
		}
		per[rot] = rig.bundle(rotated, lo, hi)
		return func(i int) ([]core.Report, error) { return per[class(i)](i) }
	}

	// The throughput window is the two full rounds.
	window := func(st phaseStat) error {
		res.WallNS += st.wall.Nanoseconds()
		res.VerPerSec = float64(rig.srv.Counts().Accepted) / secs(res.WallNS)
		return nil
	}
	script := []phase{
		{name: "round 1", image: byClass, bundle: history(v1bytes, 1, h), enrols: true, after: window},
		// The registry rotates live, the predecessor pinned for the
		// grace window. Round 2, inside it: laggards pin the retired
		// version, updated devices the new one — both verify.
		{name: "grace: laggards", who: laggard, image: oldPinned, bundle: history(v1bytes, h+1, 2*h),
			before: func() error {
				id, err := set.Rotate(rotName, verifier.ImageOfGolden(v2))
				newID = id.String()
				return err
			},
			after: func(st phaseStat) error { res.Laggards = st.senders; return window(st) }},
		{name: "grace: updated", who: updated, image: newPinned, bundle: history(v2bytes, h+1, 2*h), after: window},
		{name: "grace: other classes", who: others, bundle: history(v2bytes, h+1, 2*h), after: window},
		// Past grace the pinned predecessor is pruned: laggards still on
		// the retired image draw the distinct stale outcome, their
		// counters left unconsumed.
		{name: "stale", who: laggard, image: oldPinned, bundle: history(v1bytes, 2*h+1, 2*h+1), want: verifier.ReasonStaleImage,
			before: func() error {
				for e := 0; e < e17Grace+2; e++ {
					set.AdvanceEpoch()
				}
				return nil
			}},
		// Fresh provers claim an image the registry has never seen.
		{name: "ghost", who: every(cmp.Or(cfg.GhostEvery, 1000)), as: func(i int) string { return fmt.Sprintf("ghost%07d", i) },
			image: func(int) string { return "ghost" }, bundle: rig.bundle(goldens[0].Bytes(), 1, 1),
			want: verifier.ReasonUnknownImage, enrols: true},
		// Laggards finish flashing and re-submit the very counters that
		// were refused: a rejected report never consumes freshness.
		{name: "catch-up", who: laggard, image: newPinned, bundle: history(v2bytes, 2*h+1, 2*h+1),
			after: func(st phaseStat) error { res.CatchupAccepted = uint64(st.reports); return nil }},
		{name: "replay sample", who: every(cmp.Or(cfg.ReplayEvery, 1000)), image: byClass, bundle: history(v1bytes, 1, h),
			want: verifier.ReasonReplay, after: func(st phaseStat) error { res.ReplaySent = uint64(st.reports); return nil }},
		// Steady state: one more full round through the registry against
		// the same volume through the control daemon; recorded here,
		// pinned (and at 0 allocs/op) by the benchmark gate.
		{name: "steady state", image: byClass, bundle: history(v2bytes, 2*h+2, 3*h+1),
			after: func(st phaseStat) error { res.MultiNSPerReport = st.nsPerReport(); return nil }},
		{name: "single-image control", srv: ctl, bundle: rig.bundle(goldens[0].Bytes(), 1, h), enrols: true,
			after: func(st phaseStat) error {
				res.SingleNSPerReport, res.Ratio = st.nsPerReport(), res.MultiNSPerReport/st.nsPerReport()
				return nil
			}},
	}
	err = rig.play(script)
	res.Phases, res.PhasesChecked = len(script), rig.checked
	if err != nil {
		return res, err
	}
	counts, st := rig.srv.Counts(), set.Stats()
	res.Sent, res.Accepted, res.Rejected, res.Replays = rig.sent, counts.Accepted, counts.Rejected, counts.Replays
	res.StaleRejected, res.UnknownRejected = st.StaleProbes, st.UnknownProbes
	res.Enrolled = rig.srv.Enrolled()
	// The checkpoint carries every non-default binding.
	res.ImageRecords = len(rig.srv.Checkpoint().Images)
	_, size, err := timeCheckpoint(rig.srv, rattd.SnapshotOptions{})
	res.CheckpointBytes = int(size)
	return res, err
}

func (r *E17Result) fields() []field {
	return []field{
		{"", "", "E17: heterogeneous fleet — image-registry verification with live golden rotation\n", nil, nil},
		{"provers", "%d", "provers %d", r.Provers, nil},
		{"classes", "%d", "  classes %d", r.Classes, nil},
		{"workers", "%d", "  workers %d", r.Workers, nil},
		{"stripes", "%d", "  stripes %d", r.Stripes, nil},
		{"history", "%d", "  history %d", r.History, nil},
		{"grace", "%d", "  grace %d\n", r.Grace, nil},
		{"laggards", "%d", "", r.Laggards, nil},
		{"", "", "rotation: %s", r.RotatedClass, nil},
		{"diff_blocks", "%d", ", %d", r.DiffBlocks, nil},
		{"total_blocks", "%d", "/%d blocks changed", r.TotalBlocks, nil},
		{"", "", "; %d laggards held the retired version through grace\n", r.Laggards, nil},
		{"sent", "%d", "sent %d", r.Sent, nil},
		{"accepted", "%d", "  accepted %d", r.Accepted, nil},
		{"rejected", "%d", "  rejected %d", r.Rejected, nil},
		{"stale", "%d", "  (stale %d", r.StaleRejected, nil},
		{"unknown", "%d", ", unknown %d", r.UnknownRejected, nil},
		{"replays", "%d", ", replays %d)", r.Replays, nil},
		{"", "", "  enrolled %d\n", r.Enrolled, nil},
		{"", "", "zero spurious outcomes: grace accepts %d laggard histories, past-grace refuses each once,\n", r.Laggards, nil},
		{"catchup", "%d", "and all %d refused counters verified clean after the flash (freshness unconsumed)\n", r.CatchupAccepted, nil},
		{"enrolled", "%d", "", r.Enrolled, nil},
		{"wall_ns", "%d", "wall %.1fs", r.WallNS, secs(r.WallNS)},
		{"ver_per_sec", "%.1f", "  %.0f verified/s\n", r.VerPerSec, nil},
		{"multi_ns_per_report", "%.1f", "steady state: multi-image %.0f ns/report", r.MultiNSPerReport, nil},
		{"single_ns_per_report", "%.1f", " vs single-image %.0f ns/report", r.SingleNSPerReport, nil},
		{"ratio", "%.3f", " (%.2fx)\n", r.Ratio, nil},
		{"checkpoint_bytes", "%d", "checkpoint: %d bytes", r.CheckpointBytes, nil},
		{"image_records", "%d", " carrying %d image bindings (v4)\n", r.ImageRecords, nil},
	}
}

// RenderE17 formats the run as text.
func RenderE17(r *E17Result) string { return renderFields(r.fields()) }

// E17CSV writes the run machine-readably.
func E17CSV(w io.Writer, r *E17Result) error { return fieldsCSV(w, r.fields()) }
