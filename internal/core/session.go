package core

import (
	"saferatt/internal/device"
)

// Session runs the configured number of successive measurement rounds
// (one for every mechanism except multi-round SMARM) and collects the
// per-round reports.
type Session struct {
	dev     *device.Device
	task    *device.Task
	opts    Options
	nonce   []byte
	counter uint64
	// Hooks are installed on every round's measurement.
	Hooks Hooks

	reports []*Report
	last    *Measurement
	done    func([]*Report, error)
}

// NewSession prepares a session; counter is stamped into each report.
func NewSession(dev *device.Device, task *device.Task, opts Options, nonce []byte, counter uint64) (*Session, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Session{dev: dev, task: task, opts: opts, nonce: nonce, counter: counter}, nil
}

// Start runs all rounds; done fires once with every round's report (or
// the first error).
func (s *Session) Start(done func([]*Report, error)) {
	s.done = done
	s.runRound(0)
}

func (s *Session) runRound(r int) {
	m, err := NewMeasurement(s.dev, s.task, s.opts, s.nonce, r)
	if err != nil {
		s.done(nil, err)
		return
	}
	m.Counter = s.counter
	m.Hooks = s.Hooks
	s.last = m
	m.Start(func(rep *Report, err error) {
		if err != nil {
			s.done(nil, err)
			return
		}
		s.reports = append(s.reports, rep)
		if r+1 < s.opts.NumRounds() {
			s.runRound(r + 1)
			return
		}
		s.done(s.reports, nil)
	})
}

// Release forwards to the final round's measurement (t_r for the -Ext
// mechanisms).
func (s *Session) Release() {
	if s.last != nil {
		s.last.Release()
	}
}

// PRF computes HMAC-SHA256(key, label || counter): the pseudorandom
// function used to self-derive nonces (ERASMUS), schedule times (SeED),
// and traversal permutations. Hot paths that reuse an output buffer
// should call AppendPRF instead; this form allocates the result.
func PRF(key []byte, label string, counter uint64) []byte {
	return AppendPRF(nil, key, []byte(label), counter)
}
