package prover

import (
	"fmt"

	"saferatt/internal/core"
	"saferatt/internal/device"
	"saferatt/internal/sim"
	"saferatt/internal/transport"
)

// ErasmusProver performs ERASMUS-style recurrent self-measurements
// (§3.3): every TM it measures itself with a self-derived nonce and
// stores the report locally; a verifier occasionally sends KindCollect
// and receives the stored history. Measurement frequency (TM) and
// collection frequency (TC, chosen by the verifier) are the two
// components of Quality of Attestation.
//
// Optionally it is context-aware: if the Busy probe reports the device
// is doing critical work at a tick, the measurement is deferred by
// RetryDelay rather than competing with the critical task. And it can
// remain hybrid: with OnDemand set it also answers explicit challenges
// for maximum freshness.
type ErasmusProver struct {
	Name string
	Dev  *device.Device
	Tr   transport.Transport
	// Opts configure each self-measurement (typically an interruptible
	// preset: No-Lock, a sliding lock, or SMARM).
	Opts core.Options
	// TM is the self-measurement period.
	TM sim.Duration
	// HistoryCap bounds stored reports (oldest evicted). 0 means 64.
	HistoryCap int
	// ContextAware defers a tick while Busy() reports critical work.
	ContextAware bool
	Busy         func() bool
	RetryDelay   sim.Duration
	// OnDemand additionally serves explicit challenges (hybrid mode).
	OnDemand bool
	// Hooks are installed on every measurement.
	Hooks core.Hooks

	task    *device.Task
	ticker  *sim.Ticker
	counter uint64
	history []*core.Report
	running bool
	// sess is built on the first measurement and rerun for every one
	// after it, with measuredFn as its callback; replyTo is the
	// running measurement's hybrid challenger, if any.
	sess       *core.Session
	measuredFn func([]*core.Report, error)
	replyTo    string
	// Deferred counts ticks postponed for context-awareness; Skipped
	// counts ticks dropped because the previous measurement still ran.
	Deferred int
	Skipped  int
}

// NewErasmus binds an ERASMUS prover to the transport under name (tr
// may be nil for purely local experiments). prio is the measurement
// task priority.
func NewErasmus(name string, dev *device.Device, tr transport.Transport, opts core.Options, tm sim.Duration, prio int) (*ErasmusProver, error) {
	if err := validateSelfOpts(opts); err != nil {
		return nil, err
	}
	if tm <= 0 {
		tm = 10 * sim.Second
	}
	e := &ErasmusProver{
		Name: name, Dev: dev, Tr: tr, Opts: opts, TM: tm,
		HistoryCap: 64, RetryDelay: tm / 10,
	}
	e.task = dev.NewTask("MP:"+name, prio)
	e.measuredFn = e.measured
	if tr != nil {
		if err := tr.Bind(name, e.onMsg); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// Start begins the self-measurement schedule.
func (e *ErasmusProver) Start() {
	e.ticker = e.Dev.Kernel.NewTicker(e.TM, func(sim.Time) { e.tick() })
}

// Stop halts the schedule.
func (e *ErasmusProver) Stop() {
	if e.ticker != nil {
		e.ticker.Stop()
	}
}

func (e *ErasmusProver) tick() {
	if e.running {
		e.Skipped++
		return
	}
	if e.ContextAware && e.Busy != nil && e.Busy() {
		e.Deferred++
		delay := e.RetryDelay
		if delay <= 0 {
			delay = sim.Millisecond
		}
		e.Dev.Kernel.Schedule(delay, e.tick)
		return
	}
	e.counter++
	e.measure(core.AppendErasmusNonce(nil, e.Dev.AttestationKey, e.counter), "")
}

// measure runs one measurement under the already-advanced counter and
// stores its reports; a non-empty replyTo (a hybrid challenge) also
// gets them as a KindReport. The reports alias nonce.
func (e *ErasmusProver) measure(nonce []byte, replyTo string) {
	if e.sess == nil {
		s, err := core.NewSession(e.Dev, e.task, e.Opts, nil, 0)
		if err != nil {
			return
		}
		e.sess = s
	}
	e.sess.Hooks = e.Hooks
	e.running = true
	e.replyTo = replyTo
	e.sess.Rerun(nonce, e.counter, e.measuredFn)
}

// measured is the session's callback. Each run delivers a slice of its
// own, so history and the transport may keep it.
func (e *ErasmusProver) measured(reports []*core.Report, err error) {
	e.running = false
	if err != nil {
		return
	}
	e.store(reports)
	if e.replyTo != "" {
		e.send(transport.Msg{From: e.Name, To: e.replyTo, Kind: transport.KindReport, Reports: reports})
	}
}

func (e *ErasmusProver) store(reports []*core.Report) {
	e.history = append(e.history, reports...)
	limit := e.HistoryCap
	if limit <= 0 {
		limit = 64
	}
	if len(e.history) > limit {
		e.history = append([]*core.Report(nil), e.history[len(e.history)-limit:]...)
	}
}

// History returns a copy of the stored reports (oldest first).
func (e *ErasmusProver) History() []*core.Report {
	return append([]*core.Report(nil), e.history...)
}

func (e *ErasmusProver) onMsg(m transport.Msg) {
	switch m.Kind {
	case transport.KindCollect:
		e.send(transport.Msg{From: e.Name, To: m.From, Kind: transport.KindCollection, Reports: e.History()})
	case transport.KindChallenge:
		if e.OnDemand && !e.running {
			e.counter++
			e.measure(append([]byte(nil), m.Nonce...), m.From)
		}
	}
}

// validateSelfOpts validates a self-measuring prover's options. The
// -Ext mechanisms hold their locks until a Release that a
// self-measurement never gets, so the next measurement could not start.
func validateSelfOpts(opts core.Options) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	if opts.ExtRelease {
		return fmt.Errorf("prover: %s holds its locks until a release a self-measurement never gets", opts.Mechanism)
	}
	return nil
}

// send has datagram semantics: a bundle that cannot leave is a lost
// bundle, which the verifier's next collection covers.
func (e *ErasmusProver) send(m transport.Msg) { _ = e.Tr.Send(m) }
