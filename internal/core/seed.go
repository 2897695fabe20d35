package core

import (
	"encoding/binary"

	"saferatt/internal/channel"
	"saferatt/internal/device"
	"saferatt/internal/sim"
)

// SeEDProver implements SeED-style non-interactive attestation (§3.3):
// the prover initiates measurements at pseudorandom times derived from
// a seed shared with the verifier, triggered by a dedicated timeout
// circuit with exclusive clock access, and pushes reports
// unidirectionally. Replay protection comes from the monotonic counter
// bound into each report; the verifier knows the schedule, so a
// communication adversary that drops reports is *noticed* (a missing
// report in an expected window raises an alarm — at the price of
// possible false positives on a lossy link).
type SeEDProver struct {
	Name string
	Dev  *device.Device
	Link *channel.Link
	Opts Options
	// Seed is the short random seed shared with the verifier.
	Seed []byte
	// Base and Jitter define the schedule: trigger i+1 fires
	// Base + (PRF(seed,i+1) mod Jitter) after trigger i. The jitter
	// keeps attestation times unpredictable to malware.
	Base   sim.Duration
	Jitter sim.Duration
	// VerifierName is the report destination.
	VerifierName string
	// Hooks are installed on every measurement.
	Hooks Hooks
	// OnTrigger, if set, leaks each attestation time to its observer
	// at scheduling time — modeling the §3.3 pitfall where software
	// (and hence malware) learns the attestation schedule. Nil models
	// the recommended secret timeout circuit.
	OnTrigger func(counter uint64, at sim.Time)

	task    *device.Task
	counter uint64
	stopped bool
	// Sent counts reports pushed to the link.
	Sent int
}

// NewSeED wires a SeED prover to the link.
func NewSeED(name string, dev *device.Device, link *channel.Link, opts Options, seed []byte, base, jitter sim.Duration, prio int) (*SeEDProver, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if base <= 0 {
		base = 10 * sim.Second
	}
	if jitter <= 0 {
		jitter = base / 2
	}
	p := &SeEDProver{
		Name: name, Dev: dev, Link: link, Opts: opts,
		Seed: append([]byte(nil), seed...), Base: base, Jitter: jitter,
		VerifierName: "verifier",
	}
	p.task = dev.NewTask("MP:"+name, prio)
	return p, nil
}

// Task exposes the measurement task.
func (p *SeEDProver) Task() *device.Task { return p.task }

// PRF labels, as byte slices so a derivation converts nothing. Both are
// keyed by one prover's seed, hence AppendPRFOnce.
var (
	labelSeedSchedule = []byte("seed-schedule")
	labelSeedNonce    = []byte("seed-nonce")
)

// ScheduleDelay returns the delay between trigger i-1 and trigger i —
// a pure function of (seed, i) so the verifier can reconstruct the
// whole schedule.
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

// Start arms the timeout circuit.
func (p *SeEDProver) Start() {
	p.armNext()
}

// Stop disarms future triggers (models device shutdown; malware cannot
// call this — the circuit is hardware).
func (p *SeEDProver) Stop() { p.stopped = true }

func (p *SeEDProver) armNext() {
	next := ScheduleDelay(p.Seed, p.counter+1, p.Base, p.Jitter)
	fireAt := p.Dev.Kernel.Now().Add(next)
	if p.OnTrigger != nil {
		p.OnTrigger(p.counter+1, fireAt)
	}
	p.Dev.Kernel.Schedule(next, func() {
		if p.stopped {
			return
		}
		p.trigger()
	})
}

func (p *SeEDProver) trigger() {
	p.counter++
	counter := p.counter
	nonce := AppendPRFOnce(nil, p.Seed, labelSeedNonce, counter)
	s, err := NewSession(p.Dev, p.task, p.Opts, nonce, counter)
	if err != nil {
		return
	}
	s.Hooks = p.Hooks
	s.Start(func(reports []*Report, err error) {
		if err == nil {
			p.Sent++
			p.Link.Send(p.Name, p.VerifierName, MsgSeedReport, reports)
		}
		p.armNext()
	})
}

// Counter returns the number of triggers fired so far.
func (p *SeEDProver) Counter() uint64 { return p.counter }
