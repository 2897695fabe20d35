// Package qoa provides the closed-form analyses the paper states, so
// experiments can compare Monte Carlo results against theory:
//
//   - SMARM's roving-malware escape probability (§3.2): one shuffled
//     measurement is escaped with probability (1-1/n)^n ≈ e⁻¹, and k
//     independent measurements with ((1-1/n)^n)^k — "after 13 checks
//     that probability is below 10⁻⁶";
//   - ERASMUS's Quality-of-Attestation geometry (§3.3, Fig. 5): a
//     transient infection of dwell d against measurement period T_M is
//     detected with probability min(1, d/T_M) for a uniformly random
//     phase, and detection becomes known to Vrf only at the next
//     collection (period T_C).
package qoa

import (
	"math"

	"saferatt/internal/sim"
)

// SMARMEscapeSingle returns the probability that optimal roving malware
// escapes ONE shuffled measurement of n blocks: (1-1/n)^n. It
// approaches e⁻¹ ≈ 0.3679 from below as n grows.
func SMARMEscapeSingle(n int) float64 {
	if n <= 1 {
		return 0 // with a single block there is nowhere to hide
	}
	return math.Pow(1-1/float64(n), float64(n))
}

// SMARMEscape returns the escape probability across k independent
// shuffled measurements: SMARMEscapeSingle(n)^k.
func SMARMEscape(n, k int) float64 {
	if k <= 0 {
		return 1
	}
	return math.Pow(SMARMEscapeSingle(n), float64(k))
}

// TransientDetectProb returns the probability that a transient
// infection with dwell time d is caught by a periodic measurement with
// period tm, assuming the infection phase is uniform relative to the
// schedule (the malware cannot see the schedule): min(1, d/tm).
func TransientDetectProb(d, tm sim.Duration) float64 {
	if tm <= 0 {
		panic("qoa: measurement period must be positive")
	}
	if d <= 0 {
		return 0
	}
	p := float64(d) / float64(tm)
	if p > 1 {
		return 1
	}
	return p
}

// MeanDetectionLatency returns the expected time from the end of a
// *detected* infection until the verifier learns about it: the
// remaining wait to the covering measurement plus the wait to the next
// collection, with uniform phases (Fig. 5 geometry): ≈ tm/2 + tc/2.
func MeanDetectionLatency(tm, tc sim.Duration) sim.Duration {
	return tm/2 + tc/2
}

// BinomialCI returns the half-width of a ~95% normal-approximation
// confidence interval for an observed proportion p over n trials.
// Experiments use it to assert Monte Carlo results against closed
// forms with a principled tolerance.
func BinomialCI(p float64, n int) float64 {
	if n <= 0 {
		return 1
	}
	return 1.96 * math.Sqrt(p*(1-p)/float64(n))
}
