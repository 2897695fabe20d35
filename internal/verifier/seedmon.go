package verifier

import (
	"saferatt/internal/core"
	"saferatt/internal/sim"
)

// SeedMonitor tracks a SeED prover's unidirectional report stream: it
// reconstructs the secret schedule from the shared seed, arms a
// watchdog for each expected report, flags missing ones (possible
// communication adversary — or a false positive on a lossy link, the
// §3.3 caveat), rejects replays via the monotonic counter, and
// validates tags like any other report.
type SeedMonitor struct {
	v      *Verifier
	prover string
	seed   []byte
	base   sim.Duration
	jitter sim.Duration
	start  sim.Time
	// Grace is how long past the expected trigger time Vrf waits
	// before declaring a report missing (covers MP duration + network).
	Grace sim.Duration

	expected uint64     // next counter we are waiting for
	fresh    *Freshness // the prover's replay state; SeedLast is the watermark
	stopped  bool
	// MissingCounters lists counters whose watchdog expired.
	MissingCounters []uint64
}

// Stop disarms the watchdog chain (e.g. when the device is known to be
// decommissioned). Already-recorded results stand.
func (m *SeedMonitor) Stop() { m.stopped = true }

// MonitorSeED attaches a SeED schedule monitor for a prover. start is
// the virtual time the prover's schedule was armed.
func (v *Verifier) MonitorSeED(prover string, seed []byte, base, jitter sim.Duration, start sim.Time, grace sim.Duration) *SeedMonitor {
	m := &SeedMonitor{
		v: v, prover: prover, seed: append([]byte(nil), seed...),
		base: base, jitter: jitter, start: start, Grace: grace,
		expected: 1, fresh: v.freshnessOf(prover),
	}
	if m.Grace <= 0 {
		m.Grace = base
	}
	if v.seedMons == nil {
		v.seedMons = map[string]*SeedMonitor{}
	}
	v.seedMons[prover] = m
	m.armWatchdog()
	return m
}

func (m *SeedMonitor) armWatchdog() {
	ctr := m.expected
	due := core.TriggerTime(m.seed, ctr, m.start, m.base, m.jitter).Add(m.Grace)
	m.v.Kernel.At(due, func() {
		if m.stopped || m.fresh.SeedLast >= ctr {
			return // arrived in time, or monitoring ended
		}
		m.MissingCounters = append(m.MissingCounters, ctr)
		m.v.counts.Missing++
		m.v.record(m.v.result(m.prover, nil, ReasonSeedMissing, nil))
		m.expected = ctr + 1
		m.armWatchdog()
	})
}

// HandleSeedReports processes an unsolicited SeED report bundle. It is
// the transport-agnostic entry point behind the "seed-report" kind.
// The accept rules are the shared Freshness check and commit; flagging
// skipped counters and re-arming the watchdog is this stack's own. A
// prover nobody monitors has no seed, so its reports fail the nonce
// binding.
func (v *Verifier) HandleSeedReports(prover string, reports []*core.Report) {
	m := v.seedMons[prover]
	var seed []byte
	if m != nil {
		seed = m.seed
	}
	f := v.freshnessOf(prover)
	for _, r := range reports {
		v.nonce = core.AppendSeedNonce(v.nonce[:0], seed, r.Counter)
		why := f.CheckSeed(r, v.nonce)
		var err error
		if why == ReasonOK {
			why, err = v.checkTag(r)
		}
		if why == ReasonOK {
			why = f.CommitSeed(r.Counter)
		}
		if why.IsReplay() {
			v.counts.Replays++
		}
		if why == ReasonOK && m != nil {
			// Counters skipped between the last accepted report and
			// this one were dropped in flight: flag them now instead of
			// waiting for their watchdogs.
			for ctr := m.expected; ctr < r.Counter; ctr++ {
				m.MissingCounters = append(m.MissingCounters, ctr)
				v.counts.Missing++
				v.record(v.result(prover, nil, ReasonSeedGap, nil))
			}
			if r.Counter >= m.expected {
				m.expected = r.Counter + 1
				m.armWatchdog()
			}
		}
		v.record(v.result(prover, r, why, err))
	}
}
