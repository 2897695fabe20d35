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

// ValidateCollection checks a self-measurement history under pol and
// records one Result per report, or one for the collection when it is
// empty. It returns true when the whole history is acceptable.
func (v *Verifier) ValidateCollection(prover string, reports []*core.Report, pol CollectionPolicy) bool {
	why, first := v.judge(ERASMUS, v.freshnessOf(prover), reports, Expect{
		Nonces: v.derive(reports, func(dst []byte, ctr uint64) []byte { return core.AppendErasmusNonce(dst, v.PermKey, ctr) }),
		Policy: pol,
	})
	if len(why) == 0 {
		v.record(prover, nil, first)
	}
	for i, w := range why {
		v.record(prover, reports[i], w)
	}
	return first == ReasonOK
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
