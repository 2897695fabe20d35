package sim

import (
	"container/heap"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// heapQueue is the queue every kernel ran on until the kernel took the
// choice over: a container/heap over (at, seq). It is kept, unchanged,
// as the reference the kernel's own queue is checked against.
type heapQueue []*Event

func (q heapQueue) Len() int { return len(q) }
func (q heapQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q heapQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *heapQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *heapQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil // release the slot: no reference beyond len
	e.index = -1
	*q = old[:n-1]
	return e
}

func (q *heapQueue) push(e *Event) { heap.Push(q, e) }

func (q *heapQueue) remove(e *Event) { heap.Remove(q, e.index) }

func (q *heapQueue) pop() *Event {
	if len(*q) == 0 {
		return nil
	}
	return heap.Pop(q).(*Event)
}

func (q *heapQueue) peek() (Time, bool) {
	if len(*q) == 0 {
		return 0, false
	}
	return (*q)[0].at, true
}

func (q *heapQueue) len() int { return len(*q) }

// oracle is the Kernel's clock and sequence rules over heapQueue, on
// Events of its own.
type oracle struct {
	now Time
	seq uint64
	q   heapQueue
}

// arm queues e (fresh, fired or cancelled) at t, clamped like Kernel.At.
func (o *oracle) arm(e *Event, t Time) {
	if t < o.now {
		t = o.now
	}
	e.at, e.seq = t, o.seq
	o.seq++
	o.q.push(e)
}

func (o *oracle) cancel(e *Event) {
	if e.index >= 0 {
		o.q.remove(e)
	}
}

func (o *oracle) step() *Event {
	e := o.q.pop()
	if e != nil {
		o.now = e.at
	}
	return e
}

// Each structure alone, and the kernel's own choice between them.
var thresholds = []struct {
	name    string
	wheelAt int
}{
	{"heap", math.MaxInt},
	{"wheel", 1},
	{"threshold", wheelThreshold},
}

// structures is each structure alone.
var structures = thresholds[:2]

func newKernelAt(wheelAt int) *Kernel {
	k := NewKernel()
	k.wheelAt = wheelAt
	return k
}

// TestQueueMatchesOracle drives a Kernel and the container/heap
// reference with the same seeded stream of Schedule, At, Cancel, Timer
// arm / cancel / re-arm, equal-time bursts and partial RunUntil, and
// steers the number of pending events through three stretches: well
// below wheelThreshold, across it, and far above it. After every
// operation Len and NextTime agree, every touched event's Pending
// agrees, and every dispatch is the event the oracle pops, at its time.
func TestQueueMatchesOracle(t *testing.T) {
	for _, th := range thresholds {
		t.Run(th.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 8; seed++ {
				matchOracle(t, th.wheelAt, seed)
			}
		})
	}
}

func matchOracle(t *testing.T, wheelAt int, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	k := newKernelAt(wheelAt)
	o := &oracle{}

	// One entry per id: the kernel's handle and the oracle's.
	type pair struct {
		ev  *Event // nil for a timer
		tm  *Timer
		ref *Event
	}
	var pairs []pair
	ids := map[*Event]int{} // oracle event -> id
	var fired []int         // ids dispatched by the kernel since last cleared
	add := func(p pair) int {
		pairs = append(pairs, p)
		ids[p.ref] = len(pairs) - 1
		return len(pairs) - 1
	}
	pending := func(p pair) bool {
		if p.tm != nil {
			return p.tm.Pending()
		}
		return p.ev.Pending()
	}
	check := func(what string, touched ...int) {
		t.Helper()
		if k.Len() != o.q.len() {
			t.Fatalf("seed %d after %s: Len %d, oracle %d", seed, what, k.Len(), o.q.len())
		}
		at, ok := k.NextTime()
		wantAt, wantOK := o.q.peek()
		if at != wantAt || ok != wantOK {
			t.Fatalf("seed %d after %s: NextTime %v %v, oracle %v %v", seed, what, at, ok, wantAt, wantOK)
		}
		if k.Now() != o.now {
			t.Fatalf("seed %d after %s: now %v, oracle %v", seed, what, k.Now(), o.now)
		}
		for _, id := range touched {
			if got, want := pending(pairs[id]), pairs[id].ref.index >= 0; got != want {
				t.Fatalf("seed %d after %s: id %d Pending %v, oracle %v", seed, what, id, got, want)
			}
		}
	}
	schedule := func(at Time) int {
		id := len(pairs)
		ev := k.At(at, func() { fired = append(fired, id) })
		ref := &Event{}
		o.arm(ref, at)
		return add(pair{ev: ev, ref: ref})
	}
	step := func() {
		t.Helper()
		fired = fired[:0]
		want := o.step()
		if got := k.Step(); got != (want != nil) {
			t.Fatalf("seed %d: Step %v, oracle has event %v", seed, got, want != nil)
		}
		if want == nil {
			return
		}
		if len(fired) != 1 || fired[0] != ids[want] {
			t.Fatalf("seed %d at %v: dispatched %v, oracle id %d", seed, o.now, fired, ids[want])
		}
		check("step", fired[0])
	}
	delay := func() Duration {
		mag := []Duration{3, 64, 4096, 1 << 18, 1 << 24, 10 * Second}[rng.IntN(6)]
		return Duration(rng.Int64N(int64(mag)))
	}

	// A pool of reusable timers, as devices hold them.
	var timers []int
	for i := 0; i < 32; i++ {
		id := len(pairs)
		tm := k.NewTimer(func() { fired = append(fired, id) })
		ref := &Event{index: -1}
		timers = append(timers, add(pair{tm: tm, ref: ref}))
	}

	// Linked long before any migration, cancelled long after it.
	early := schedule(Time(1000 * Hour))
	check("early", early)

	for n, stretch := range []struct{ target, ops int }{
		{wheelThreshold / 4, 2000},
		{2 * wheelThreshold, 3000},
		{8 * wheelThreshold, 12000},
		{wheelThreshold / 4, 6000},
	} {
		for i := 0; i < stretch.ops; i++ {
			// Pop more often than push only when over the target, and
			// never the early event.
			if r := rng.IntN(10); k.Len() > 1 && (r < 2 || (r < 7 && k.Len() > stretch.target)) {
				step()
				continue
			}
			switch r := rng.IntN(12); {
			case r < 5:
				check("Schedule", schedule(k.Now().Add(delay())))
			case r < 6: // absolute, sometimes in the past
				check("At", schedule(Time(rng.Int64N(int64(k.Now())+int64(Second)))))
			case r < 7: // equal-time burst
				at := k.Now().Add(Duration(rng.Int64N(100)))
				for j := 0; j < 3; j++ {
					check("burst", schedule(at))
				}
			case r < 9: // cancel any earlier id but early; it may have fired
				id := rng.IntN(len(pairs))
				if id == early {
					continue
				}
				if p := pairs[id]; p.tm != nil {
					p.tm.Cancel()
				} else {
					p.ev.Cancel()
				}
				o.cancel(pairs[id].ref)
				check("Cancel", id)
			case r < 11: // arm a timer, cancelling first if it is pending
				id := timers[rng.IntN(len(timers))]
				p := pairs[id]
				if p.tm.Pending() {
					p.tm.Cancel()
					o.cancel(p.ref)
					check("Timer.Cancel", id)
				}
				d := delay()
				p.tm.Arm(d)
				o.arm(p.ref, o.now.Add(d))
				check("Timer.Arm", id)
			default: // advance part-way
				until := k.Now().Add(Duration(rng.Int64N(1 << 16)))
				fired = fired[:0]
				k.RunUntil(until)
				var want []int
				for at, ok := o.q.peek(); ok && at <= until; at, ok = o.q.peek() {
					want = append(want, ids[o.step()])
				}
				o.now = until
				if !slices.Equal(fired, want) {
					t.Fatalf("seed %d: RunUntil(%v) dispatched %v, oracle %v", seed, until, fired, want)
				}
				check("RunUntil", want...)
			}
		}
		// The run must really sit on each side of the threshold: on the
		// heap through the first stretch, on the wheel from the second.
		if onWheel := k.wheel != nil; wheelAt == wheelThreshold && onWheel != (n > 0) {
			t.Fatalf("seed %d: after stretch %d (%d pending) on wheel: %v", seed, n, k.Len(), onWheel)
		}
	}

	if !pairs[early].ev.Pending() {
		t.Fatalf("seed %d: early event left the queue", seed)
	}
	pairs[early].ev.Cancel()
	o.cancel(pairs[early].ref)
	check("late Cancel", early)
	if e := pairs[early].ev; e.fn != nil || e.next != nil || e.prev != nil || e.index != -1 {
		t.Fatalf("seed %d: event cancelled after migration retains state", seed)
	}
	for k.Len() > 0 || o.q.len() > 0 {
		step()
	}
	step() // empty on both sides
}
