package main

import (
	"fmt"
	"sort"
	"strings"
)

// oracle is the expected-outcome ledger of one run. Every generated op
// is registered with the verdict it must get; an op whose outcome
// differs, that times out, or that never resolves is a failed op and
// contributes to no latency figure. Aggregate assertions (counter
// conservation, daemon-vs-client agreement, digest equality) are
// recorded through check and count as one op each.
type oracle struct {
	attempted int64
	failed    int64
	classes   map[string]*classTally
	problems  []string
}

// classTally counts one op class (fresh, replay, forged, spoofed, ...).
type classTally struct {
	sent     int64 // ops issued
	accepted int64 // ops whose verdict was OK
	rejected int64 // ops whose verdict was not OK
	wrong    int64 // ops whose verdict differed from the expectation
	lost     int64 // ops that timed out or never resolved
}

func newOracle() *oracle { return &oracle{classes: map[string]*classTally{}} }

func (o *oracle) class(name string) *classTally {
	c := o.classes[name]
	if c == nil {
		c = &classTally{}
		o.classes[name] = c
	}
	return c
}

// sent registers n issued ops of a class.
func (o *oracle) sent(class string, n int64) {
	o.class(class).sent += n
	o.attempted += n
}

// verdict resolves one op: got is the outcome observed, want the one
// the generator attached to the op. It reports whether they agree.
func (o *oracle) verdict(class string, want, got bool) bool {
	if got {
		o.verdicts(class, want, 1, 0)
	} else {
		o.verdicts(class, want, 0, 1)
	}
	return want == got
}

// verdicts resolves ops of a class in bulk: ok of them came back
// accepted and notOK rejected, and want is what all of them should
// have got.
func (o *oracle) verdicts(class string, want bool, ok, notOK int64) {
	if ok == 0 && notOK == 0 {
		return
	}
	c := o.class(class)
	c.accepted += ok
	c.rejected += notOK
	wrong := notOK
	if !want {
		wrong = ok
	}
	if wrong > 0 {
		c.wrong += wrong
		o.failed += wrong
		o.problem("%d %s op(s): verdict ok=%v, expected ok=%v", wrong, class, !want, want)
	}
}

// lost resolves n ops of a class as never answered.
func (o *oracle) lost(class string, n int64, why string) {
	if n <= 0 {
		return
	}
	o.class(class).lost += n
	o.failed += n
	o.problem("%d %s op(s) lost: %s", n, class, why)
}

// check records one aggregate assertion as an op of its own.
func (o *oracle) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.problem(format, args...)
	}
}

func (o *oracle) problem(format string, args ...any) {
	const keep = 12
	if len(o.problems) < keep {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	} else if len(o.problems) == keep {
		o.problems = append(o.problems, "... further problems suppressed")
	}
}

// close asserts that every class is fully resolved: each op issued was
// either accepted, rejected or declared lost — accepted + rejected ==
// sent in the absence of losses.
func (o *oracle) close() {
	names := make([]string, 0, len(o.classes))
	for n := range o.classes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := o.classes[n]
		if pending := c.sent - c.accepted - c.rejected - c.lost; pending != 0 {
			o.lost(n, pending, "unresolved at end of run")
		}
	}
}

func (o *oracle) correct() bool { return o.failed == 0 }

func (o *oracle) failedRatio() float64 {
	if o.attempted == 0 {
		return 0
	}
	return float64(o.failed) / float64(o.attempted)
}

// render prints the per-class table.
func (o *oracle) render() string {
	var b strings.Builder
	names := make([]string, 0, len(o.classes))
	for n := range o.classes {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "  %-18s %10s %10s %10s %8s %8s\n", "class", "sent", "accepted", "rejected", "wrong", "lost")
	for _, n := range names {
		c := o.classes[n]
		fmt.Fprintf(&b, "  %-18s %10d %10d %10d %8d %8d\n", n, c.sent, c.accepted, c.rejected, c.wrong, c.lost)
	}
	fmt.Fprintf(&b, "  failed_ops_ratio %d/%d = %g\n", o.failed, o.attempted, o.failedRatio())
	for _, p := range o.problems {
		fmt.Fprintf(&b, "  PROBLEM: %s\n", p)
	}
	return b.String()
}
