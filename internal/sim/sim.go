// Package sim provides a deterministic discrete-event simulation kernel.
//
// All of saferatt's device-level experiments run on virtual time: a
// Kernel owns a monotonically non-decreasing clock and a queue of
// events. Events scheduled for the same instant fire in scheduling
// order, which makes every simulation bit-for-bit reproducible.
//
// The kernel is intentionally single-threaded: low-end IoT devices of
// the kind studied in the paper have a single core, and determinism is a
// design goal (see DESIGN.md §6).
//
// The kernel owns one event queue and picks its structure from the
// number of pending events: a value-keyed 4-ary heap (heap.go) while
// they are few, a hierarchical timing wheel (wheel.go, O(1) amortized
// Schedule/Arm/Cancel) from the first time they reach wheelThreshold.
// Both pop in the same (time, scheduling order) total order, checked
// against a container/heap reference by TestQueueMatchesOracle, so
// which one a kernel is on never shows in a simulation's results.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time, in nanoseconds.
type Duration int64

// Common durations, mirroring time package conventions.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

func (t Time) String() string { return fmt.Sprintf("t=%.6fs", float64(t)/float64(Second)) }

func (d Duration) String() string { return fmt.Sprintf("%.6fs", d.Seconds()) }

// Event is a scheduled callback. It is returned by the scheduling
// methods so callers can cancel it before it fires.
type Event struct {
	at  Time
	seq uint64
	fn  func()
	// index is the position marker inside the queue: the heap position
	// while the kernel is on the heap, level*wheelSlots+slot on the
	// wheel. -1 once popped or cancelled; >= 0 means pending.
	index int
	// next/prev link the event into its wheel bucket (intrusive doubly
	// linked list; nil on the heap and whenever not queued).
	next, prev *Event
	kernel     *Kernel
}

// Cancel removes the event from the kernel's queue. Cancelling an event
// that already fired or was already cancelled is a no-op. The stored
// callback is released immediately: a cancelled event never retains the
// closure (and whatever device state it captured) until reuse.
func (e *Event) Cancel() {
	if e == nil || e.index < 0 || e.kernel == nil {
		return
	}
	if k := e.kernel; k.wheel != nil {
		k.wheel.remove(e)
	} else {
		k.heap.remove(e)
	}
	e.fn = nil
}

// Pending reports whether the event is still queued.
func (e *Event) Pending() bool { return e != nil && e.index >= 0 }

// Kernel is a deterministic discrete-event scheduler.
// The zero value is not usable; call NewKernel.
type Kernel struct {
	now   Time
	seq   uint64
	steps uint64
	// Pending events live on heap until there are wheelAt of them, and
	// on wheel (nil until then) ever after.
	heap    eventHeap
	wheel   *wheelQueue
	wheelAt int
}

// wheelThreshold is the pending-event count at which a kernel moves
// from the heap to the timing wheel, once and for good. The heap costs
// O(log n) an event and nothing to set up; the wheel costs the same at
// any n but pays ns-tick cascades through lazily allocated levels
// (some 5 KB) that a kernel of a handful of events — a Monte Carlo
// trial — never earns back.
//
// BenchmarkSched_FleetTimers, ns an event on one P (median of five),
// each structure forced at every size:
//
//	   N    heap   wheel
//	  16    54.7    96.7
//	  64    79.8    89.1
//	 256    95.6    81.6
//	1024   120.0    79.1
//	4096   145.3    86.5
//
// The wheel is ahead from N 256 on. End to end the two read level on a
// self-measuring fleet of 125 devices (250-280 pending events), the wheel
// 3-17 % ahead at 10 000, and the heap 14 % ahead on an E6 cell of five
// pending events a kernel (DESIGN.md §6).
const wheelThreshold = 256

// NewKernel returns a kernel with the clock at 0 and an empty queue.
func NewKernel() *Kernel { return &Kernel{wheelAt: wheelThreshold} }

// push queues e, moving the kernel onto the wheel if e is the pending
// event that reaches the threshold.
func (k *Kernel) push(e *Event) {
	if k.wheel == nil {
		if len(k.heap)+1 < k.wheelAt {
			k.heap.push(e)
			return
		}
		// Every pending event is at or after now, so the wheel can
		// start there. Draining in (at, seq) order keeps each slot's
		// list FIFO by seq, which is all the wheel's ordering rests on.
		k.wheel = &wheelQueue{cur: uint64(k.now)}
		for p := k.heap.pop(); p != nil; p = k.heap.pop() {
			k.wheel.push(p)
		}
		k.heap = nil
	}
	k.wheel.push(e)
}

func (k *Kernel) pop() *Event {
	if k.wheel != nil {
		return k.wheel.pop()
	}
	return k.heap.pop()
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Len returns the number of pending events.
func (k *Kernel) Len() int {
	if k.wheel != nil {
		return k.wheel.count
	}
	return len(k.heap)
}

// Steps returns the number of events dispatched so far.
func (k *Kernel) Steps() uint64 { return k.steps }

// NextTime returns the timestamp of the earliest pending event, or
// false if the queue is empty.
func (k *Kernel) NextTime() (Time, bool) {
	if k.wheel != nil {
		return k.wheel.peek()
	}
	if len(k.heap) == 0 {
		return 0, false
	}
	return k.heap[0].at, true
}

// Schedule queues fn to run after delay. A negative delay is treated as
// zero (run at the current instant, after already-queued events for this
// instant).
func (k *Kernel) Schedule(delay Duration, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return k.At(k.now.Add(delay), fn)
}

// At queues fn to run at absolute virtual time t. Scheduling in the past
// is clamped to the current instant.
func (k *Kernel) At(t Time, fn func()) *Event {
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	if t < k.now {
		t = k.now
	}
	e := &Event{at: t, seq: k.seq, fn: fn, kernel: k}
	k.seq++
	k.push(e)
	return e
}

// Step dispatches the earliest pending event, advancing the clock to its
// timestamp. It returns false if the queue is empty.
func (k *Kernel) Step() bool {
	e := k.pop()
	if e == nil {
		return false
	}
	k.now = e.at
	k.steps++
	fn := e.fn
	e.fn = nil // the queue must not retain the closure past dispatch
	fn()
	return true
}

// Run dispatches events until the queue is empty.
func (k *Kernel) Run() {
	for k.Step() {
	}
}

// RunLimited dispatches at most maxSteps events and reports whether the
// queue drained. It is the watchdog form of Run for driving untrusted
// or long event cascades (a swarm shard runs thousands of device
// kernels; one runaway reschedule loop must not hang the whole sweep).
func (k *Kernel) RunLimited(maxSteps uint64) bool {
	for i := uint64(0); i < maxSteps; i++ {
		if !k.Step() {
			return true
		}
	}
	return k.Len() == 0
}

// RunUntil dispatches events with timestamps <= t, then advances the
// clock to exactly t (even if no event fired there).
func (k *Kernel) RunUntil(t Time) {
	for {
		at, ok := k.NextTime()
		if !ok || at > t {
			break
		}
		k.Step()
	}
	if t > k.now {
		k.now = t
	}
}

// Timer is a reusable scheduled callback with at most one pending
// activation: Arm pushes the same Event object back onto the queue, so
// a hot loop that schedules one completion at a time (the device
// scheduler, the measurement engine's per-block steps) performs no
// allocation per activation. Ordering is identical to Schedule — each
// Arm consumes a fresh sequence number.
type Timer struct {
	ev Event
	fn func()
}

// NewTimer builds a timer that runs fn each time it fires. The timer
// starts unarmed.
func (k *Kernel) NewTimer(fn func()) *Timer {
	if fn == nil {
		panic("sim: NewTimer called with nil callback")
	}
	t := &Timer{fn: fn}
	t.ev.kernel = k
	t.ev.index = -1
	return t
}

// Arm schedules the timer to fire after delay (negative delays clamp to
// the current instant, like Schedule). It panics if the timer is
// already pending: a Timer models exactly one outstanding activation.
func (t *Timer) Arm(delay Duration) {
	if t.ev.index >= 0 {
		panic("sim: Arm on a pending timer")
	}
	k := t.ev.kernel
	if delay < 0 {
		delay = 0
	}
	t.ev.at = k.now.Add(delay)
	t.ev.seq = k.seq
	k.seq++
	t.ev.fn = t.fn
	k.push(&t.ev)
}

// Cancel removes a pending activation (no-op if not pending).
func (t *Timer) Cancel() { t.ev.Cancel() }

// Pending reports whether an activation is queued.
func (t *Timer) Pending() bool { return t.ev.Pending() }

// Ticker fires a callback periodically until stopped. It reschedules
// itself after each firing, so callbacks see a consistent period even if
// they take zero virtual time.
type Ticker struct {
	kernel *Kernel
	period Duration
	fn     func(Time)
	timer  *Timer
	stop   bool
}

// NewTicker schedules fn every period, first firing after one period.
// Period must be positive.
func (k *Kernel) NewTicker(period Duration, fn func(Time)) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{kernel: k, period: period, fn: fn}
	t.timer = k.NewTimer(t.tick)
	t.timer.Arm(period)
	return t
}

func (t *Ticker) tick() {
	if t.stop {
		return
	}
	t.fn(t.kernel.Now())
	if !t.stop {
		t.timer.Arm(t.period)
	}
}

// Stop cancels future firings.
func (t *Ticker) Stop() {
	t.stop = true
	t.timer.Cancel()
}
