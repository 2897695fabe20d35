package experiments

import (
	"bytes"
	"strings"
	"testing"

	"saferatt/internal/core"
	"saferatt/internal/rattd"
	"saferatt/internal/transport"
	"saferatt/internal/verifier"
)

// TestFleetScriptCatchesWrongExpectation is the mutation check on the
// runner's oracle: a script that is right plays to the end, and each
// way of being wrong — a phase declaring the wrong verdict, one sender
// offering a replay inside an all-accepted phase, a name enrolled that
// the phase did not declare — stops the run at the phase that is wrong.
// The last mutation is the reason the check runs after every phase: two
// errors that cancel in every end-of-run total (one prover's round-one
// bundle sent under its neighbour's name, so it is first accepted, and
// enrolled, in the replay sample) pass a runner that only sums.
func TestFleetScriptCatchesWrongExpectation(t *testing.T) {
	const provers, victim = 64, 10
	image := fleetImage(0)
	script := func(g *fleetRig) []phase {
		return []phase{
			{name: "round 1", bundle: g.bundle(image, 1, 2), enrols: true},
			{name: "round 2", bundle: g.bundle(image, 3, 4)},
			{name: "seed", who: every(4), kind: transport.KindSeedReport, bundle: g.seedBundle(image, 1)},
			{name: "replay sample", who: every(2), bundle: g.bundle(image, 1, 2), want: verifier.ReasonReplay},
		}
	}
	// What the script as declared adds up to; the clean run holds it.
	totals := fleetObs{Counts: rattd.Counts{Accepted: 2*2*provers + provers/4, Rejected: provers, Replays: provers}, Enrolled: provers}
	for _, tc := range []struct {
		name   string
		mutate func(g *fleetRig, s []phase)
		fails  string // the phase the runner must stop at; "" = none
	}{
		{"as declared", func(*fleetRig, []phase) {}, ""},
		{"wrong expected class", func(_ *fleetRig, s []phase) { s[3].want = verifier.ReasonOK }, "replay sample"},
		{"wrong reject class", func(_ *fleetRig, s []phase) { s[3].want = verifier.ReasonStaleImage }, "replay sample"},
		{"one sender replays", func(g *fleetRig, s []phase) {
			fresh, old := s[1].bundle, g.bundle(image, 1, 2)
			s[1].bundle = func(i int) ([]core.Report, error) {
				if i == victim {
					return old(i)
				}
				return fresh(i)
			}
		}, "round 2"},
		{"undeclared ghost enrolled", func(g *fleetRig, s []phase) {
			s[1].as = func(i int) string {
				if i == victim {
					return "ghost"
				}
				return g.names[i]
			}
		}, "round 2"},
		{"enrolment declared, none happens", func(_ *fleetRig, s []phase) { s[1].enrols = true }, "round 2"},
		// The victim's round one goes out under its neighbour's name: a
		// replay there, and the victim is first enrolled in round two and
		// first accepted on counters 1–2 in the replay sample.
		{"errors that cancel in the totals", func(g *fleetRig, s []phase) {
			s[0].as = func(i int) string {
				if i == victim {
					return g.names[victim+1]
				}
				return g.names[i]
			}
		}, "round 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := newFleetRig(provers, 4, rattd.Config{Ref: image}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer g.srv.Close()
			s := script(g)
			tc.mutate(g, s)
			err = g.play(s)
			switch {
			case tc.fails == "" && err != nil:
				t.Fatalf("a correct script failed: %v", err)
			case tc.fails == "" && (g.checked != len(s) || observe(g.srv) != totals):
				t.Fatalf("%d of %d phases checked, server at %+v, want %+v", g.checked, len(s), observe(g.srv), totals)
			case tc.fails != "" && err == nil:
				t.Fatalf("the runner let the script through; want it to stop at phase %q", tc.fails)
			case tc.fails != "" && !strings.Contains(err.Error(), `phase "`+tc.fails+`"`):
				t.Fatalf("the runner stopped at %v, want phase %q", err, tc.fails)
			}
			if tc.name == "errors that cancel in the totals" {
				for _, p := range s[1:] {
					_ = g.run(p) // play on regardless, as a runner that only sums at the end would
				}
				if got := observe(g.srv); got != totals {
					t.Fatalf("the mutation was meant to cancel in the totals: server at %+v, want %+v", got, totals)
				}
			}
		})
	}
}

// TestFleetCSVHeaders holds the column names E15–E17 publish: the field
// lists print the header and the row from one place, so this is the one
// spelling a plotting script can rely on.
func TestFleetCSVHeaders(t *testing.T) {
	for name, tc := range map[string]struct {
		write func(*bytes.Buffer) error
		want  string
	}{
		"e15": {func(b *bytes.Buffer) error { return E15CSV(b, &E15Result{Provers: 1}) },
			"provers,workers,stripes,history,sent,accepted,rejected,replays,enrolled,wall_ns,ver_per_sec,heap_base,heap_round1,heap_round2,bytes_per_prover,round2_bytes_per_prover,checkpoint_bytes,checkpoint_ns"},
		"e16": {func(b *bytes.Buffer) error { return E16CSV(b, &E16Result{}) },
			"provers,workers,stripes,base_ver_per_sec,ckpt_ver_per_sec,concurrent_ratio,slow_ver_per_sec,stall_ratio,encode_overlapped,checkpoints,full_ns,full_bytes,full_alloc_bytes,dirty_provers,delta_ns,delta_bytes,delta_speedup,chain_deltas,restore_ns"},
		"e17": {func(b *bytes.Buffer) error { return E17CSV(b, &E17Result{}) },
			"provers,classes,workers,stripes,history,grace,laggards,diff_blocks,total_blocks,sent,accepted,rejected,stale,unknown,replays,catchup,enrolled,wall_ns,ver_per_sec,multi_ns_per_report,single_ns_per_report,ratio,checkpoint_bytes,image_records"},
	} {
		var b bytes.Buffer
		if err := tc.write(&b); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
		if len(lines) != 2 || lines[0] != tc.want {
			t.Errorf("%s: header %q, want %q (in %d lines)", name, lines[0], tc.want, len(lines))
		}
		if got, want := strings.Count(lines[1], ","), strings.Count(tc.want, ","); got != want {
			t.Errorf("%s: row has %d columns, header %d", name, got+1, want+1)
		}
	}
}
