package core

import (
	"encoding/binary"

	"saferatt/internal/sim"
)

// labelSeedSchedule is keyed by one prover's seed, hence AppendPRFOnce.
var labelSeedSchedule = []byte("seed-schedule")

// ScheduleDelay returns the delay between SeED trigger i-1 and trigger
// i (§3.3): base + (PRF(seed, i) mod jitter) — a pure function of
// (seed, i) so the verifier can reconstruct the whole schedule, and
// unpredictable to malware that does not hold the seed.
func ScheduleDelay(seed []byte, i uint64, base, jitter sim.Duration) sim.Duration {
	if jitter <= 0 {
		return base
	}
	r := AppendPRFOnce(nil, seed, labelSeedSchedule, i)
	off := sim.Duration(binary.BigEndian.Uint64(r[:8]) % uint64(jitter))
	return base + off
}

// TriggerTime returns the absolute virtual time of trigger i (1-based),
// assuming the schedule started at time start.
func TriggerTime(seed []byte, i uint64, start sim.Time, base, jitter sim.Duration) sim.Time {
	t := start
	for k := uint64(1); k <= i; k++ {
		t = t.Add(ScheduleDelay(seed, k, base, jitter))
	}
	return t
}
