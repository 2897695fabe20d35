package sim

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestKernelStartsAtZero(t *testing.T) {
	k := NewKernel()
	if k.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", k.Now())
	}
	if k.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", k.Len())
	}
}

func TestScheduleAdvancesClock(t *testing.T) {
	k := NewKernel()
	var fired Time
	k.Schedule(5*Second, func() { fired = k.Now() })
	k.Run()
	if fired != Time(5*Second) {
		t.Fatalf("event fired at %v, want 5s", fired)
	}
	if k.Now() != Time(5*Second) {
		t.Fatalf("clock at %v, want 5s", k.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Schedule(3*Second, func() { order = append(order, 3) })
	k.Schedule(1*Second, func() { order = append(order, 1) })
	k.Schedule(2*Second, func() { order = append(order, 2) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(Second, func() { order = append(order, i) })
	}
	k.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-instant events out of scheduling order: %v", order)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	k := NewKernel()
	fired := false
	k.Schedule(-5, func() { fired = true })
	k.Run()
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
	if k.Now() != 0 {
		t.Fatalf("clock moved backwards to %v", k.Now())
	}
}

func TestAtInPastClamped(t *testing.T) {
	k := NewKernel()
	k.Schedule(10*Second, func() {
		k.At(Time(3*Second), func() {
			if k.Now() != Time(10*Second) {
				t.Errorf("past event fired at %v, want clamped to 10s", k.Now())
			}
		})
	})
	k.Run()
}

func TestCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.Schedule(Second, func() { fired = true })
	if !e.Pending() {
		t.Fatal("event should be pending before run")
	}
	e.Cancel()
	if e.Pending() {
		t.Fatal("event still pending after cancel")
	}
	k.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double-cancel and cancel-after-fire must be no-ops.
	e.Cancel()
	e2 := k.Schedule(Second, func() {})
	k.Run()
	e2.Cancel()
}

func TestCancelMiddleOfQueue(t *testing.T) {
	k := NewKernel()
	var order []int
	var events []*Event
	for i := 0; i < 5; i++ {
		i := i
		events = append(events, k.Schedule(Duration(i+1)*Second, func() { order = append(order, i) }))
	}
	events[2].Cancel()
	k.Run()
	want := []int{0, 1, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	k := NewKernel()
	k.RunUntil(Time(42 * Second))
	if k.Now() != Time(42*Second) {
		t.Fatalf("Now() = %v, want 42s", k.Now())
	}
}

func TestRunUntilDoesNotOvershoot(t *testing.T) {
	k := NewKernel()
	fired := false
	k.Schedule(10*Second, func() { fired = true })
	k.RunUntil(Time(5 * Second))
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if k.Now() != Time(5*Second) {
		t.Fatalf("Now() = %v, want 5s", k.Now())
	}
	k.RunUntil(Time(10 * Second))
	if !fired {
		t.Fatal("event at horizon should fire")
	}
}

func TestRunLimitedStopsRunawayCascade(t *testing.T) {
	k := NewKernel()
	var reschedule func()
	reschedule = func() { k.Schedule(Millisecond, reschedule) }
	k.Schedule(0, reschedule)
	if k.RunLimited(100) {
		t.Fatal("runaway cascade reported as drained")
	}
	if k.Steps() != 100 {
		t.Fatalf("dispatched %d steps, want exactly 100", k.Steps())
	}
	if k.Len() == 0 {
		t.Fatal("queue should still hold the pending reschedule")
	}
}

func TestRunLimitedDrainsFiniteQueue(t *testing.T) {
	k := NewKernel()
	fired := 0
	for i := 0; i < 5; i++ {
		k.Schedule(Duration(i)*Second, func() { fired++ })
	}
	if !k.RunLimited(1000) {
		t.Fatal("finite queue not reported drained")
	}
	if fired != 5 {
		t.Fatalf("fired %d, want 5", fired)
	}
	// Exactly-at-limit drain counts as drained.
	k2 := NewKernel()
	k2.Schedule(0, func() {})
	if !k2.RunLimited(1) {
		t.Fatal("exact-limit drain not reported drained")
	}
}

func TestRunForIsRelative(t *testing.T) {
	k := NewKernel()
	k.RunUntil(k.Now().Add(3 * Second))
	k.RunUntil(k.Now().Add(4 * Second))
	if k.Now() != Time(7*Second) {
		t.Fatalf("Now() = %v, want 7s", k.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			k.Schedule(Millisecond, recurse)
		}
	}
	k.Schedule(0, recurse)
	k.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if k.Now() != Time(99*Millisecond) {
		t.Fatalf("Now() = %v, want 99ms", k.Now())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	k := NewKernel()
	if k.Step() {
		t.Fatal("Step on empty queue returned true")
	}
	k.Schedule(0, func() {})
	if !k.Step() {
		t.Fatal("Step with pending event returned false")
	}
	if k.Steps() != 1 {
		t.Fatalf("Steps() = %d, want 1", k.Steps())
	}
}

func TestTickerPeriodic(t *testing.T) {
	k := NewKernel()
	var at []Time
	tk := k.NewTicker(Second, func(now Time) { at = append(at, now) })
	k.RunUntil(Time(5*Second) + 1)
	tk.Stop()
	k.Run()
	if len(at) != 5 {
		t.Fatalf("ticker fired %d times, want 5 (at %v)", len(at), at)
	}
	for i, ts := range at {
		if ts != Time((i+1)*int(Second)) {
			t.Fatalf("firing %d at %v, want %ds", i, ts, i+1)
		}
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	k := NewKernel()
	n := 0
	var tk *Ticker
	tk = k.NewTicker(Second, func(Time) {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	k.Run()
	if n != 3 {
		t.Fatalf("ticker fired %d times after in-callback Stop, want 3", n)
	}
}

func TestTickerPanicsOnNonPositivePeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero period")
		}
	}()
	NewKernel().NewTicker(0, func(Time) {})
}

func TestAtPanicsOnNilCallback(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil callback")
		}
	}()
	NewKernel().At(0, nil)
}

// Property: for any batch of random delays, events fire in sorted time
// order and the clock never regresses.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(seed uint64, raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 200 {
			raw = raw[:200]
		}
		k := NewKernel()
		var fired []Time
		delays := make([]Duration, len(raw))
		for i, r := range raw {
			delays[i] = Duration(r % 1_000_000)
		}
		for _, d := range delays {
			k.Schedule(d, func() { fired = append(fired, k.Now()) })
		}
		k.Run()
		if len(fired) != len(delays) {
			return false
		}
		sorted := make([]Duration, len(delays))
		copy(sorted, delays)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range fired {
			if fired[i] != Time(sorted[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving random cancellations never corrupts the heap;
// surviving events all fire exactly once in order.
func TestPropertyCancelConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0))
		k := NewKernel()
		const n = 100
		firedCount := make([]int, n)
		events := make([]*Event, n)
		for i := 0; i < n; i++ {
			i := i
			events[i] = k.Schedule(Duration(rng.Int64N(1000)), func() { firedCount[i]++ })
		}
		cancelled := make([]bool, n)
		for i := 0; i < n/3; i++ {
			j := rng.IntN(n)
			events[j].Cancel()
			cancelled[j] = true
		}
		k.Run()
		for i := 0; i < n; i++ {
			want := 1
			if cancelled[i] {
				want = 0
			}
			if firedCount[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDurationHelpers(t *testing.T) {
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("Seconds() = %v, want 2", got)
	}
	tm := Time(0).Add(3 * Second)
	if tm != Time(3*Second) {
		t.Errorf("Add: got %v", tm)
	}
	if d := tm.Sub(Time(Second)); d != 2*Second {
		t.Errorf("Sub: got %v", d)
	}
	if s := tm.String(); s != "t=3.000000s" {
		t.Errorf("Time.String() = %q", s)
	}
	if s := (1500 * Millisecond).String(); s != "1.500000s" {
		t.Errorf("Duration.String() = %q", s)
	}
}
