package core

import (
	"fmt"

	"saferatt/internal/device"
	"saferatt/internal/suite"
)

// Process is one isolated software component on a TyTAN-style device:
// a task plus the memory region it owns.
type Process struct {
	Name   string
	Task   *device.Task
	Region device.Region
}

// TyTAN measures each process's memory individually (§3.1): while a
// process is measured it is suspended — "the process being measured may
// not interrupt MP, regardless of its priority" — but every other
// process keeps running, preserving real-time behavior. A
// single-process malware therefore cannot relocate during its own
// measurement; only colluding malware in another process could move it,
// and doing so "would require malware to violate process isolation"
// (modeled by device.EnableProcessIsolation).
type TyTAN struct {
	Dev    *device.Device
	Hash   suite.HashID // defaults to SHA-256
	task   *device.Task
	procs  []*Process
	byName map[string]*Process
	// HooksFor, if set, supplies measurement hooks per measured
	// process (adversary observation).
	HooksFor func(p *Process) Hooks

	counter uint64
}

// NewTyTAN builds the per-process attestation service. mpPrio is the
// measurement task's priority.
func NewTyTAN(dev *device.Device, mpPrio int, procs []*Process) (*TyTAN, error) {
	if len(procs) == 0 {
		return nil, fmt.Errorf("core: TyTAN needs at least one process")
	}
	byName := map[string]*Process{}
	for _, p := range procs {
		if p.Task == nil || p.Region.Count <= 0 {
			return nil, fmt.Errorf("core: process %q missing task or region", p.Name)
		}
		if p.Region.End() > dev.Mem.NumBlocks() {
			return nil, fmt.Errorf("core: process %q region exceeds memory", p.Name)
		}
		if _, dup := byName[p.Name]; dup {
			return nil, fmt.Errorf("core: duplicate process name %q", p.Name)
		}
		byName[p.Name] = p
	}
	return &TyTAN{
		Dev:    dev,
		task:   dev.NewTask("MP:tytan", mpPrio),
		procs:  procs,
		byName: byName,
	}, nil
}

// MeasureAll measures every process in registration order, suspending
// each for exactly the span of its own measurement. done receives one
// report per process name.
func (t *TyTAN) MeasureAll(nonce []byte, done func(map[string]*Report, error)) {
	t.counter++
	results := map[string]*Report{}
	var step func(i int)
	step = func(i int) {
		if i >= len(t.procs) {
			done(results, nil)
			return
		}
		p := t.procs[i]
		hash := t.Hash
		if hash == "" {
			hash = suite.SHA256
		}
		opts := Options{
			Mechanism: "TyTAN",
			Hash:      hash,
			Region:    p.Region,
		}
		m, err := NewMeasurement(t.Dev, t.task, opts, nonce, i)
		if err != nil {
			done(nil, err)
			return
		}
		m.Counter = t.counter
		if t.HooksFor != nil {
			m.Hooks = t.HooksFor(p)
		}
		p.Task.Suspend()
		m.Start(func(rep *Report, err error) {
			p.Task.Resume()
			if err != nil {
				done(nil, err)
				return
			}
			results[p.Name] = rep
			step(i + 1)
		})
	}
	step(0)
}
