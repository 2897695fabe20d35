// Package prover holds the device side of the paper's three exchanges
// as link-attached endpoints: Prover answers SMART challenges (§2.2),
// ErasmusProver self-measures on a period and answers collections,
// SeEDProver pushes reports on a secret schedule (§3.3). They sit above
// internal/transport and speak transport.Msg over a transport.Transport
// — the simulated link or real sockets — exactly as the verifiers of
// both stacks do; the measurement engine they drive is internal/core.
package prover

import (
	"saferatt/internal/core"
	"saferatt/internal/device"
	"saferatt/internal/trace"
	"saferatt/internal/transport"
)

// Prover is an on-demand attestation responder: it receives challenges
// over the transport, runs a measurement session per the configured
// mechanism, and returns the reports (the §2.2 timeline).
type Prover struct {
	Name string
	Dev  *device.Device
	Tr   transport.Transport
	Opts core.Options
	// Hooks are installed on every measurement (adversary/experiment
	// observation).
	Hooks core.Hooks

	task    *device.Task
	counter uint64
	session *core.Session
	busy    bool
	// DroppedBusy counts challenges discarded because a session was
	// already running.
	DroppedBusy int
}

// NewProver binds a prover to the transport under name. prio is the MP
// task priority (HYDRA semantics come from passing the highest priority
// on the device; TrustLite-style designs pass a low one).
func NewProver(name string, dev *device.Device, tr transport.Transport, opts core.Options, prio int) (*Prover, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	p := &Prover{Name: name, Dev: dev, Tr: tr, Opts: opts}
	p.task = dev.NewTask("MP:"+name, prio)
	if err := tr.Bind(name, p.onMsg); err != nil {
		return nil, err
	}
	return p, nil
}

// Task exposes the measurement task (experiments adjust priority or
// inspect stats).
func (p *Prover) Task() *device.Task { return p.task }

func (p *Prover) onMsg(m transport.Msg) {
	switch m.Kind {
	case transport.KindChallenge:
		p.Dev.Trace.Add(p.Dev.Kernel.Now(), trace.KindRequestReceived, p.Name, "challenge")
		p.handleChallenge(m.From, m.Nonce)
	case transport.KindRelease:
		if p.session != nil {
			p.session.Release()
		}
	}
}

func (p *Prover) handleChallenge(from string, nonce []byte) {
	if p.busy {
		p.DroppedBusy++
		return
	}
	p.counter++
	s, err := core.NewSession(p.Dev, p.task, p.Opts, nonce, p.counter)
	if err != nil {
		return
	}
	s.Hooks = p.Hooks
	p.session = s
	p.busy = true
	s.Start(func(reports []*core.Report, err error) {
		p.busy = false
		if err != nil {
			return
		}
		p.Dev.Trace.Add(p.Dev.Kernel.Now(), trace.KindReportSent, p.Name, "")
		// Datagram semantics: a report that cannot leave is a lost report.
		_ = p.Tr.Send(transport.Msg{From: p.Name, To: from, Kind: transport.KindReport, Reports: reports})
	})
}
