package prover

import (
	"saferatt/internal/core"
	"saferatt/internal/device"
	"saferatt/internal/sim"
	"saferatt/internal/transport"
)

// SeEDProver implements SeED-style non-interactive attestation (§3.3):
// the prover initiates measurements at pseudorandom times derived from
// a seed shared with the verifier (core.ScheduleDelay), triggered by a
// dedicated timeout circuit with exclusive clock access, and pushes
// reports unidirectionally — it binds no receive handler, so traffic
// addressed to it reaches no attestation path. Replay protection comes
// from the monotonic counter bound into each report; the verifier knows
// the schedule, so a communication adversary that drops reports is
// *noticed* (a missing report in an expected window raises an alarm —
// at the price of possible false positives on a lossy link).
type SeEDProver struct {
	Name string
	Dev  *device.Device
	Tr   transport.Transport
	Opts core.Options
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
	Hooks core.Hooks
	// OnTrigger, if set, leaks each attestation time to its observer
	// at scheduling time — modeling the §3.3 pitfall where software
	// (and hence malware) learns the attestation schedule. Nil models
	// the recommended secret timeout circuit.
	OnTrigger func(counter uint64, at sim.Time)

	task    *device.Task
	counter uint64
	stopped bool
	// Sent counts reports pushed to the transport.
	Sent int
}

// NewSeED builds a SeED prover that pushes its reports through tr.
func NewSeED(name string, dev *device.Device, tr transport.Transport, opts core.Options, seed []byte, base, jitter sim.Duration, prio int) (*SeEDProver, error) {
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
		Name: name, Dev: dev, Tr: tr, Opts: opts,
		Seed: append([]byte(nil), seed...), Base: base, Jitter: jitter,
		VerifierName: "verifier",
	}
	p.task = dev.NewTask("MP:"+name, prio)
	return p, nil
}

// Task exposes the measurement task.
func (p *SeEDProver) Task() *device.Task { return p.task }

// Start arms the timeout circuit.
func (p *SeEDProver) Start() {
	p.armNext()
}

// Stop disarms future triggers (models device shutdown; malware cannot
// call this — the circuit is hardware).
func (p *SeEDProver) Stop() { p.stopped = true }

func (p *SeEDProver) armNext() {
	next := core.ScheduleDelay(p.Seed, p.counter+1, p.Base, p.Jitter)
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
	nonce := core.AppendSeedNonce(nil, p.Seed, counter)
	s, err := core.NewSession(p.Dev, p.task, p.Opts, nonce, counter)
	if err != nil {
		return
	}
	s.Hooks = p.Hooks
	s.Start(func(reports []*core.Report, err error) {
		if err == nil {
			p.Sent++
			// Unidirectional by design: a report that cannot leave is
			// what the verifier's schedule monitor exists to notice.
			_ = p.Tr.Send(transport.Msg{From: p.Name, To: p.VerifierName, Kind: transport.KindSeedReport, Reports: reports})
		}
		p.armNext()
	})
}

// Counter returns the number of triggers fired so far.
func (p *SeEDProver) Counter() uint64 { return p.counter }
