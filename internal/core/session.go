package core

import (
	"errors"

	"saferatt/internal/device"
)

// Session runs the configured number of successive measurement rounds
// (one for every mechanism except multi-round SMARM) and collects the
// per-round reports.
//
// A session owns one Measurement, bound to its device, task and options
// once; every round of every run resets it. A periodic prover keeps one
// session per task and calls Rerun for each measurement, so a run
// allocates only what it hands out: each round's report with its
// coverage and tag, and the slice done receives.
type Session struct {
	m       Measurement
	rounds  int // m.opts.NumRounds(), which copies the options
	nonce   []byte
	counter uint64
	// Hooks are installed on every round's measurement.
	Hooks Hooks

	reports []*Report
	done    func([]*Report, error) // non-nil while a run is in flight
	roundFn func(*Report, error)   // s.roundDone, bound once
}

// errExtHeld is what a Rerun reports while the previous run still
// holds its extended locks.
var errExtHeld = errors.New("core: session rerun while the previous run holds its -Ext locks (call Release first)")

// NewSession prepares a session; counter is stamped into each report.
// The session keeps its own copy of nonce.
func NewSession(dev *device.Device, task *device.Task, opts Options, nonce []byte, counter uint64) (*Session, error) {
	s := &Session{nonce: append([]byte(nil), nonce...), counter: counter}
	if err := s.m.init(dev, task, opts); err != nil {
		return nil, err
	}
	s.rounds = opts.NumRounds()
	s.roundFn = s.roundDone
	return s, nil
}

// Start runs all rounds under the nonce and counter NewSession was
// given; done fires once with every round's report (or the first
// error).
func (s *Session) Start(done func([]*Report, error)) {
	s.Rerun(s.nonce, s.counter, done)
}

// Rerun runs the session again under a new nonce and counter; done
// fires as for Start. Every report aliases nonce, so the caller must
// not modify it afterwards. Reports and slices an earlier run delivered
// stay valid: a run never overwrites them.
//
// Rerun panics if the previous run has not finished. If that run ended
// holding -Ext locks, done receives an error and the locks stay held
// until Release.
func (s *Session) Rerun(nonce []byte, counter uint64, done func([]*Report, error)) {
	if s.done != nil {
		panic("core: session rerun before its previous run finished")
	}
	if s.m.extHeld {
		done(nil, errExtHeld)
		return
	}
	s.nonce, s.counter, s.done = nonce, counter, done
	s.reports = make([]*Report, 0, s.rounds)
	s.runRound(0)
}

func (s *Session) runRound(r int) {
	s.m.reset(s.nonce, r)
	s.m.Counter = s.counter
	s.m.Hooks = s.Hooks
	s.m.Start(s.roundFn)
}

func (s *Session) roundDone(rep *Report, err error) {
	if err != nil {
		s.finish(nil, err)
		return
	}
	s.reports = append(s.reports, rep)
	if r := len(s.reports); r < s.rounds {
		s.runRound(r)
		return
	}
	s.finish(s.reports, nil)
}

// finish ends the run before delivering it, so done may Rerun.
func (s *Session) finish(reports []*Report, err error) {
	done := s.done
	s.done = nil
	done(reports, err)
}

// Release forwards to the final round's measurement (t_r for the -Ext
// mechanisms).
func (s *Session) Release() { s.m.Release() }

// PRF computes HMAC-SHA256(key, label || counter): the pseudorandom
// function used to self-derive nonces (ERASMUS), schedule times (SeED),
// and traversal permutations. Hot paths that reuse an output buffer
// should call AppendPRF instead; this form allocates the result.
func PRF(key []byte, label string, counter uint64) []byte {
	return AppendPRF(nil, key, []byte(label), counter)
}
