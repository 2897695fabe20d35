package experiments

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"saferatt/internal/core"
	"saferatt/internal/rattd"
	"saferatt/internal/transport"
	"saferatt/internal/verifier"
)

// The fleet script behind E15–E17. The three experiments drive the same
// thing — named provers offering bundles to an in-process rattd.Server
// from a pool of workers — and make the same promise about it (DESIGN.md
// §13, I1 and the single-process half of I2). So the fleet is one rig, its
// traffic a table of phases, and the runner checks the promise after
// every phase; checked as end-of-run sums, an error in one phase hides
// behind the opposite error in another. An experiment keeps only the
// measurement it alone makes, in the hooks between phases.

// The golden geometry and collection depth of every scripted fleet.
const (
	fleetBlock   = 256 // measurement block bytes; an image is 16 of them
	fleetHistory = 4   // reports in one collection round (E15, E17)
)

// fleetImage is the golden image device class c holds.
func fleetImage(c int) []byte { return rattd.GoldenImage(7+uint64(c), 16*fleetBlock, fleetBlock) }

// fleetRig is a scripted fleet and the server it talks to.
type fleetRig struct {
	srv     *rattd.Server
	names   []string
	workers int
	logf    func(format string, args ...any)
	tmpl    map[tmplKey][]core.Report
	sent    uint64 // reports offered to srv so far
	checked int    // phases run and found to match their declaration
	err     error  // the first template that could not be measured
}

type tmplKey struct {
	image  *byte // identity of the image measured
	lo, hi uint64
}

// newFleetRig names the provers and serves cfg on an in-process
// transport. The caller closes the rig's srv.
func newFleetRig(provers, workers int, cfg rattd.Config, logf func(string, ...any)) (*fleetRig, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	g := &fleetRig{names: make([]string, provers), workers: workers, logf: logf, tmpl: map[tmplKey][]core.Report{}}
	for i := range g.names {
		g.names[i] = fmt.Sprintf("prv%07d", i)
	}
	var err error
	g.srv, err = serveFleet(cfg)
	return g, err
}

// serveFleet starts a server of the scripted geometry: a rig's own, the
// copy a chain is restored into, a single-image control arm.
func serveFleet(cfg rattd.Config) (*rattd.Server, error) {
	cfg.BlockSize = fleetBlock
	return rattd.Serve(transport.NewLocal(), cfg)
}

// bundle is the ERASMUS history for counters lo..hi over image, measured
// once and offered by every sender of a phase: the fleet shares one key,
// so for a given (image, counter) every prover's report is byte-identical
// — the amortization ERASMUS collection rests on, and the one the batch
// verifier performs on the receiving side.
func (g *fleetRig) bundle(image []byte, lo, hi uint64) func(int) ([]core.Report, error) {
	key := tmplKey{&image[0], lo, hi}
	rs, ok := g.tmpl[key]
	if !ok && g.err == nil {
		var p *rattd.Prover
		p, g.err = rattd.NewProver("tmpl", rattd.DefaultKey, image, fleetBlock)
		for c := lo; c <= hi && g.err == nil; c++ {
			var r *core.Report
			if r, g.err = p.SelfMeasure(c); g.err == nil {
				rs = append(rs, *r)
			}
		}
		g.tmpl[key] = rs
	}
	return func(int) ([]core.Report, error) { return rs, nil }
}

// seedBundle is prover i's own SeED report for counter ctr, measured by
// the worker that sends it: SeED nonces are per prover, so this is the
// share of fleet traffic no template serves.
func (g *fleetRig) seedBundle(image []byte, ctr uint64) func(int) ([]core.Report, error) {
	return func(i int) ([]core.Report, error) {
		p, err := rattd.NewProver(g.names[i], rattd.DefaultKey, image, fleetBlock)
		if err != nil {
			return nil, err
		}
		r, err := p.SeedReport(ctr)
		if err != nil {
			return nil, err
		}
		return []core.Report{*r}, nil
	}
}

// every selects each n-th prover, from the first.
func every(n int) func(int) bool { return func(i int) bool { return i%n == 0 } }

// phase is one row of a fleet script: who sends what, and the one verdict
// all of it must draw.
type phase struct {
	name   string
	who    func(i int) bool   // the provers that send; nil = the whole fleet
	as     func(i int) string // the name i sends under; nil = its own
	image  func(i int) string // the wire image id; nil = none (the bound image)
	kind   transport.Kind     // zero = KindCollection
	bundle func(i int) ([]core.Report, error)
	want   verifier.Reason // what every report (SMART: every exchange) draws
	enrols bool            // every sender is a name the server has not met
	srv    *rattd.Server   // another server to offer it to; nil = the rig's

	before func() error             // runs ahead of the traffic
	after  func(st phaseStat) error // runs once the phase has checked out
}

// phaseStat is what a phase sent and how long the workers took over it.
type phaseStat struct {
	senders, reports int
	wall             time.Duration
}

func (st phaseStat) perSec() float64 { return float64(st.reports) / st.wall.Seconds() }
func (st phaseStat) nsPerReport() float64 {
	return float64(st.wall.Nanoseconds()) / float64(st.reports)
}

// fleetObs is everything a server lets the runner see move.
type fleetObs struct {
	rattd.Counts
	Enrolled       int
	Stale, Unknown uint64 // registry probes refused, one per bundle
}

func observe(srv *rattd.Server) fleetObs {
	is := srv.Images().Stats()
	return fleetObs{srv.Counts(), srv.Enrolled(), is.StaleProbes, is.UnknownProbes}
}

// fanOut gives each worker one contiguous span of the fleet's indexes.
func (g *fleetRig) fanOut(fn func(worker, lo, hi int)) {
	var wg sync.WaitGroup
	per := (len(g.names) + g.workers - 1) / g.workers
	for w := 0; w*per < len(g.names); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, w*per, min((w+1)*per, len(g.names)))
		}()
	}
	wg.Wait()
}

// play runs the script in order and stops at the first phase whose
// traffic, hooks or outcome fail.
func (g *fleetRig) play(script []phase) error {
	for _, p := range script {
		if err := g.run(p); err != nil {
			return fmt.Errorf("phase %q: %w", p.name, err)
		}
	}
	return nil
}

// run offers one phase's bundles across the workers, then holds the
// server to the phase's declaration: its counters, its enrolment and its
// registry's refused probes moved by exactly what was sent, in the
// declared verdict's counter, and by nothing anywhere else.
func (g *fleetRig) run(p phase) error {
	if g.err != nil {
		return g.err
	}
	if p.before != nil {
		if err := p.before(); err != nil {
			return err
		}
	}
	srv, kind := p.srv, p.kind
	if srv == nil {
		srv = g.srv
	}
	if kind == transport.KindInvalid {
		kind = transport.KindCollection
	}
	was := observe(srv)
	sent, errs := make([]phaseStat, g.workers), make([]error, g.workers)
	start := time.Now()
	g.fanOut(func(w, lo, hi int) {
		var mine phaseStat // locals: the workers' slots share cache lines
		var err error
		for i := lo; i < hi && err == nil; i++ {
			if p.who != nil && !p.who(i) {
				continue
			}
			name, image := g.names[i], ""
			if p.as != nil {
				name = p.as(i)
			}
			if p.image != nil {
				image = p.image(i)
			}
			var reports []core.Report
			if reports, err = p.bundle(i); err == nil {
				srv.IngestImage(name, kind, image, reports)
				mine.senders++
				mine.reports += len(reports)
			}
		}
		sent[w], errs[w] = mine, err
	})
	st := phaseStat{wall: time.Since(start)}
	for _, s := range sent {
		st.senders += s.senders
		st.reports += s.reports
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}

	want, outcomes, class := was, uint64(st.reports), "accepted"
	if kind == transport.KindReport {
		outcomes = uint64(st.senders) // a SMART exchange is one outcome
	}
	want.Verdicts.Add(p.want, outcomes)
	want.Counts = want.Summed()
	switch p.want {
	case verifier.ReasonStaleImage:
		want.Stale += uint64(st.senders)
	case verifier.ReasonUnknownImage:
		want.Unknown += uint64(st.senders)
	}
	if p.want != verifier.ReasonOK {
		class = "refused: " + p.want.String()
	}
	if p.enrols {
		want.Enrolled += st.senders
	}
	if got := observe(srv); got != want {
		return fmt.Errorf("%d senders offered %d reports, every one to be %s: the server went from %+v to %+v, want %+v",
			st.senders, st.reports, class, was, got, want)
	}
	g.checked++
	if srv == g.srv {
		g.sent += uint64(st.reports)
	}
	g.logf("phase %q: %d reports from %d senders in %.3fs, all %s", p.name, st.reports, st.senders, st.wall.Seconds(), class)
	if p.after != nil {
		return p.after(st)
	}
	return nil
}

// timeCheckpoint encodes a snapshot of srv to nowhere, timed.
func timeCheckpoint(srv *rattd.Server, o rattd.SnapshotOptions) (ns, size int64, err error) {
	start := time.Now()
	stats, err := srv.WriteCheckpoint(io.Discard, o)
	if err != nil {
		err = fmt.Errorf("checkpoint: %w", err)
	}
	return time.Since(start).Nanoseconds(), stats.Bytes, err
}

// field is one reported quantity. A result's ordered fields print both of
// its forms, so a column cannot drift from its value: the CSV takes col
// and the value under verb; the text block strings the text fragments
// together, each holding one verb for the value — or for shown, where the
// text speaks another unit (seconds, MiB).
type field struct {
	col, verb string // CSV column and verb; col "" = text only
	text      string // text fragment; "" = CSV only
	val       any
	shown     any
}

func renderFields(fs []field) string {
	var b strings.Builder
	for _, f := range fs {
		switch {
		case f.val == nil:
			b.WriteString(f.text) // a title
		case f.shown != nil:
			fmt.Fprintf(&b, f.text, f.shown)
		case f.text != "":
			fmt.Fprintf(&b, f.text, f.val)
		}
	}
	return b.String()
}

func fieldsCSV(w io.Writer, fs []field) error {
	var cols, vals []string
	for _, f := range fs {
		if f.col != "" {
			cols = append(cols, f.col)
			vals = append(vals, fmt.Sprintf(f.verb, f.val))
		}
	}
	_, err := fmt.Fprintf(w, "%s\n%s\n", strings.Join(cols, ","), strings.Join(vals, ","))
	return err
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }
func mib(b uint64) float64  { return float64(b) / (1 << 20) }
