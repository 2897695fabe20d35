package verifier

import (
	"saferatt/internal/core"
	"saferatt/internal/sim"
)

// CollectionPolicy configures validation of an ERASMUS measurement
// history (§3.3): besides per-report tags, the verifier checks that
// self-derived nonces are honest, counters never repeat, and the
// measurement cadence matches the advertised QoA.
type CollectionPolicy struct {
	// TM is the expected self-measurement period; 0 skips cadence
	// checks.
	TM sim.Duration
	// Slack is the tolerated deviation per gap (scheduling noise,
	// context-aware deferrals). Defaults to TM/2 when zero.
	Slack sim.Duration
}

// HandleCollection validates an ERASMUS history message under the
// default policy. It is the transport-agnostic entry point behind the
// "collection" message kind; callers with cadence expectations use
// ValidateCollection directly.
func (v *Verifier) HandleCollection(prover string, reports []*core.Report) {
	v.ValidateCollection(prover, reports, CollectionPolicy{})
}

// ValidateCollection checks a self-measurement history and records one
// Result per report plus cadence violations. It returns true when the
// whole history is acceptable. The accept rules are the shared
// Freshness check and commit; the cadence policy, which needs the
// reports' virtual timestamps, is this stack's own and runs between
// them, before the tag is paid for.
func (v *Verifier) ValidateCollection(prover string, reports []*core.Report, pol CollectionPolicy) bool {
	ok := true
	f := v.freshnessOf(prover)
	var prev *core.Report
	for _, r := range reports {
		v.nonce = core.AppendErasmusNonce(v.nonce[:0], v.PermKey, r.Counter)
		var prevCtr uint64
		if prev != nil {
			prevCtr = prev.Counter
		}
		why := f.CheckErasmus(r, v.nonce, prev == nil, prevCtr)
		if why == ReasonOK && prev != nil && !pol.allows(prev, r) {
			why = ReasonCadence
		}
		var err error
		if why == ReasonOK {
			why, err = v.checkTag(r)
		}
		if why == ReasonOK {
			why = f.CommitErasmus(r.Counter)
		}
		if why.IsReplay() {
			v.counts.Replays++
		}
		v.record(v.result(prover, r, why, err))
		ok = ok && why == ReasonOK
		prev = r
	}
	return ok
}

// allows reports whether the gap between two consecutive measurements
// matches the advertised period.
func (pol CollectionPolicy) allows(prev, r *core.Report) bool {
	if pol.TM <= 0 {
		return true
	}
	slack := pol.Slack
	if slack == 0 {
		slack = pol.TM / 2
	}
	gap := r.TS.Sub(prev.TS)
	expect := sim.Duration(r.Counter-prev.Counter) * pol.TM
	return gap >= expect-slack && gap <= expect+slack
}

// QoA summarizes the Quality of Attestation a collection provides
// (Fig. 5): the observed measurement period and the staleness of the
// newest measurement at collection time.
type QoA struct {
	// MeanTM is the observed mean gap between consecutive
	// measurements.
	MeanTM sim.Duration
	// WorstGap is the largest observed gap — the worst-case window of
	// opportunity for transient malware.
	WorstGap sim.Duration
	// Staleness is collection time minus the newest report's t_s.
	Staleness sim.Duration
	// Measurements is the history length.
	Measurements int
}

// QoAOf computes QoA statistics for a collection received at time now.
func QoAOf(reports []*core.Report, now sim.Time) QoA {
	q := QoA{Measurements: len(reports)}
	if len(reports) == 0 {
		return q
	}
	var total sim.Duration
	for i := 1; i < len(reports); i++ {
		gap := reports[i].TS.Sub(reports[i-1].TS)
		total += gap
		if gap > q.WorstGap {
			q.WorstGap = gap
		}
	}
	if len(reports) > 1 {
		q.MeanTM = total / sim.Duration(len(reports)-1)
	}
	q.Staleness = now.Sub(reports[len(reports)-1].TS)
	return q
}
