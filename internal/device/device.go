// Package device models a simple single-core IoT prover: a
// priority-preemptive task scheduler over the discrete-event kernel,
// block-granular preemption, an interrupt-disable facility (SMART-style
// atomic sections), and timing charged from a costmodel profile.
//
// The model deliberately preempts only at work-step boundaries. The
// attestation engine submits one step per measured memory block, so an
// interruptible mechanism lets a critical task in after at most one
// block-measurement time, while an atomic mechanism (interrupts
// disabled) blocks it for the whole remaining measurement — exactly the
// tension of the paper's §2.5.
package device

import (
	"fmt"

	"saferatt/internal/costmodel"
	"saferatt/internal/inccache"
	"saferatt/internal/mem"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
	"saferatt/internal/trace"
)

// Device is a simulated single-core prover MCU.
type Device struct {
	Kernel  *sim.Kernel
	Mem     *mem.Memory
	Profile *costmodel.Profile
	Trace   *trace.Log

	// AttestationKey is the device's ROM-protected symmetric key. Only
	// attestation code (internal/core) may read it; malware models must
	// not. The access rule is architectural (SMART's hard-wired MCU
	// rules) and is enforced in this simulation by convention and
	// review, not by the type system.
	AttestationKey []byte

	tasks       []*Task
	current     *Task
	executing   *Task // task whose step-completion fn is running
	lastRan     *Task
	busy        bool
	kickPending bool
	atomicOwner *Task

	// The scheduler has at most one step completion and one dispatch
	// kick outstanding at a time, so both reuse a single kernel timer
	// instead of allocating an event + closure per step (the
	// measurement engine submits one step per memory block, making
	// this the simulation's hottest scheduling path).
	stepTimer *sim.Timer
	kickTimer *sim.Timer
	runTask   *Task
	runStep   step
	runDur    sim.Duration

	// digests caches per-block content digests for the incremental
	// measurement engine, one cache per digest hash, shared by every
	// measurement on this device (see internal/inccache).
	digests map[suite.HashID]*inccache.MemCache
}

// Config assembles a Device.
type Config struct {
	Kernel  *sim.Kernel
	Mem     *mem.Memory
	Profile *costmodel.Profile
	Trace   *trace.Log // may be nil
}

// DefaultKey is the fleet-shared attestation key every device ships
// with; real deployments provision their own. Every Device's
// AttestationKey and rattd.DefaultKey alias this one slice: replace a
// key by assignment, never write through it.
var DefaultKey = []byte("saferatt-default-attestation-key")

// New builds a Device. Kernel, Mem and Profile are required.
func New(cfg Config) *Device {
	if cfg.Kernel == nil || cfg.Mem == nil || cfg.Profile == nil {
		panic("device: Kernel, Mem and Profile are required")
	}
	d := &Device{
		Kernel:         cfg.Kernel,
		Mem:            cfg.Mem,
		Profile:        cfg.Profile,
		Trace:          cfg.Trace,
		AttestationKey: DefaultKey,
	}
	d.stepTimer = cfg.Kernel.NewTimer(d.stepDone)
	d.kickTimer = cfg.Kernel.NewTimer(d.kicked)
	return d
}

// DigestCache returns the device's per-block digest cache for the given
// digest hash, building it on first use. Pass the measurement hash
// through inccache.DigestHash first.
func (d *Device) DigestCache(hash suite.HashID) *inccache.MemCache {
	if c, ok := d.digests[hash]; ok {
		return c
	}
	if d.digests == nil {
		d.digests = map[suite.HashID]*inccache.MemCache{}
	}
	c := inccache.NewMem(d.Mem, hash)
	d.digests[hash] = c
	return c
}

// Stats aggregates per-task scheduling statistics.
type Stats struct {
	Steps       int          // completed work steps
	Busy        sim.Duration // total CPU time consumed
	MaxWait     sim.Duration // worst queue wait before a step started
	TotalWait   sim.Duration // summed queue waits
	MaxResponse sim.Duration // worst submit-to-completion time
	Preemptions int          // times the task lost the CPU between its steps
}

// Task is a schedulable software component on the device: the critical
// application, the attestation process, or malware.
type Task struct {
	dev     *Device
	name    string
	prio    int
	queue   []step
	stats   Stats
	blocked bool
}

type step struct {
	dur       sim.Duration
	fn        func()
	submitted sim.Time
}

// NewTask registers a task. Higher prio values run first; ties break in
// creation order.
func (d *Device) NewTask(name string, prio int) *Task {
	t := &Task{dev: d, name: name, prio: prio}
	d.tasks = append(d.tasks, t)
	return t
}

// Name returns the task name.
func (t *Task) Name() string { return t.name }

// Stats returns a copy of the task's scheduling statistics.
func (t *Task) Stats() Stats { return t.stats }

// Pending returns the number of queued, not-yet-started steps.
func (t *Task) Pending() int { return len(t.queue) }

// Submit enqueues a work step of the given CPU duration; fn (may be
// nil) runs when the step completes. Steps of one task run in FIFO
// order. Submission models an interrupt or self-continuation: if the
// CPU is idle it dispatches immediately; if a lower-priority step is
// running, this task takes over at the next step boundary.
func (t *Task) Submit(dur sim.Duration, fn func()) {
	if dur < 0 {
		panic(fmt.Sprintf("device: negative step duration %v", dur))
	}
	t.queue = append(t.queue, step{dur: dur, fn: fn, submitted: t.dev.Kernel.Now()})
	t.dev.kick()
}

// Suspend makes the task unschedulable until Resume: TyTAN-style
// designs suspend the process whose memory is being measured so it
// cannot relocate itself, while other processes keep running.
func (t *Task) Suspend() { t.blocked = true }

// Resume lifts a Suspend and lets the scheduler reconsider.
func (t *Task) Resume() {
	t.blocked = false
	t.dev.kick()
}

// Suspended reports whether the task is currently unschedulable.
func (t *Task) Suspended() bool { return t.blocked }

// DisableInterrupts enters an atomic section owned by t: until
// EnableInterrupts, only t's steps are dispatched, regardless of other
// tasks' priorities. This is SMART's first step of MP.
func (d *Device) DisableInterrupts(t *Task) {
	d.atomicOwner = t
}

// EnableInterrupts leaves the atomic section and lets the scheduler
// reconsider.
func (d *Device) EnableInterrupts() {
	d.atomicOwner = nil
	d.kick()
}

// InterruptsDisabled reports whether an atomic section is active.
func (d *Device) InterruptsDisabled() bool { return d.atomicOwner != nil }

// kick schedules a dispatch at the current instant if the CPU is idle
// and none is already scheduled.
func (d *Device) kick() {
	if d.busy || d.kickPending {
		return
	}
	d.kickPending = true
	d.kickTimer.Arm(0)
}

func (d *Device) kicked() {
	d.kickPending = false
	d.dispatch()
}

// pick selects the next task to run under the current policy.
func (d *Device) pick() *Task {
	if d.atomicOwner != nil {
		if len(d.atomicOwner.queue) > 0 {
			return d.atomicOwner
		}
		return nil
	}
	var best *Task
	for _, t := range d.tasks {
		if len(t.queue) == 0 || t.blocked {
			continue
		}
		if best == nil || t.prio > best.prio {
			best = t
		}
	}
	return best
}

func (d *Device) dispatch() {
	if d.busy {
		return
	}
	t := d.pick()
	if t == nil {
		return
	}
	// Pop by shifting down rather than re-slicing forward: advancing the
	// slice base would consume capacity and force every submit-pop cycle
	// (one per measured block) to reallocate the backing array.
	st := t.queue[0]
	n := copy(t.queue, t.queue[1:])
	t.queue[n] = step{}
	t.queue = t.queue[:n]

	dur := st.dur
	if d.lastRan != t {
		dur += d.Profile.CtxSwitch
		if d.lastRan != nil && len(d.lastRan.queue) > 0 {
			d.lastRan.stats.Preemptions++
			d.Trace.AddCat(d.Kernel.Now(), trace.KindTaskPreempt, d.lastRan.name, "preempted by ", t.name)
		}
		d.Trace.Add(d.Kernel.Now(), trace.KindTaskStart, t.name, "")
	}

	start := d.Kernel.Now()
	wait := start.Sub(st.submitted)
	if wait > t.stats.MaxWait {
		t.stats.MaxWait = wait
	}
	t.stats.TotalWait += wait

	d.busy = true
	d.current = t
	d.runTask, d.runStep, d.runDur = t, st, dur
	d.stepTimer.Arm(dur)
}

// stepDone runs when the in-flight step's CPU time elapses: account it,
// run the completion callback, dispatch the next step.
func (d *Device) stepDone() {
	t, st, dur := d.runTask, d.runStep, d.runDur
	d.runTask, d.runStep = nil, step{}
	d.busy = false
	d.current = nil
	d.lastRan = t
	t.stats.Busy += dur
	t.stats.Steps++
	resp := d.Kernel.Now().Sub(st.submitted)
	if resp > t.stats.MaxResponse {
		t.stats.MaxResponse = resp
	}
	if st.fn != nil {
		d.executing = t
		st.fn()
		d.executing = nil
	}
	d.dispatch()
}

// Running returns the task currently holding the CPU — either mid-step
// or executing its step-completion code — or nil when idle.
func (d *Device) Running() *Task {
	if d.executing != nil {
		return d.executing
	}
	return d.current
}
