package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
)

// TestWheelOrdering drives the wheel through same-tick collisions and
// multi-level cascades and checks exact dispatch order and clocking.
func TestWheelOrdering(t *testing.T) {
	k := newKernelAt(1)
	var got []int
	add := func(id int, at Time) { k.At(at, func() { got = append(got, id) }) }
	// Deliberately out of order, spanning level 0 through level 3+,
	// with three events at the same instant (FIFO expected).
	add(0, 5)
	add(1, 1_000_000_000) // ~level 4 from t=0
	add(2, 5)             // same tick as 0, scheduled later
	add(3, 70)            // level 1
	add(4, 17_000_000)    // level 3
	add(5, 5)             // same tick again
	add(6, 0)
	k.Run()
	want := []int{6, 0, 2, 5, 3, 4, 1}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if k.Now() != 1_000_000_000 || k.Steps() != 7 {
		t.Fatalf("now=%v steps=%d", k.Now(), k.Steps())
	}
}

// TestWheelRunUntil checks peek-driven partial dispatch across cascade
// boundaries, including scheduling while the wheel's tick lags the
// kernel clock.
func TestWheelRunUntil(t *testing.T) {
	k := newKernelAt(1)
	fired := map[int]Time{}
	k.At(100, func() { fired[0] = k.Now() })
	k.At(100_000, func() { fired[1] = k.Now() })
	k.RunUntil(50_000)
	if len(fired) != 1 || fired[0] != 100 || k.Now() != 50_000 {
		t.Fatalf("fired=%v now=%v", fired, k.Now())
	}
	// The clock is ahead of the wheel's internal tick now; new events
	// must still order correctly.
	k.Schedule(10, func() { fired[2] = k.Now() })
	k.Run()
	if fired[2] != 50_010 || fired[1] != 100_000 {
		t.Fatalf("fired=%v", fired)
	}
}

// TestBackendsEquivalentRandom is the randomized property test at the
// API's own level: the same schedule/re-arm/cancel workload — same-tick
// collisions, Ticker re-arming, cancellations of pending and fired
// events, partial RunUntil advances, callbacks that schedule — drives a
// kernel held on the heap, one on the wheel from its first event and
// one that migrates part-way, and the firing order, clocks, and step
// counts must match exactly.
func TestBackendsEquivalentRandom(t *testing.T) {
	type op struct {
		kind  int // 0 = schedule, 1 = cancel, 2 = run-until, 3 = timer re-arm chain, 4 = ticker
		id    int
		delay Duration
		n     int
	}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		var script []op
		nextID := 0
		for i := 0; i < 400; i++ {
			switch r := rng.IntN(10); {
			case r < 4: // schedule at a delay drawn across wheel levels
				mag := []Duration{3, 64, 4096, 1 << 18, 1 << 24, Duration(sim10s)}[rng.IntN(6)]
				script = append(script, op{kind: 0, id: nextID, delay: Duration(rng.Int64N(int64(mag)))})
				nextID++
			case r < 5: // same-tick collision burst
				d := rng.Int64N(100)
				for j := 0; j < 3; j++ {
					script = append(script, op{kind: 0, id: nextID, delay: Duration(d)})
					nextID++
				}
			case r < 7: // cancel a random earlier id (may already have fired)
				if nextID > 0 {
					script = append(script, op{kind: 1, id: rng.IntN(nextID)})
				}
			case r < 8: // advance part-way
				script = append(script, op{kind: 2, delay: Duration(rng.Int64N(1 << 20))})
			case r < 9: // self-re-arming timer chain
				script = append(script, op{kind: 3, id: nextID, delay: Duration(1 + rng.Int64N(5000)), n: 1 + rng.IntN(4)})
				nextID++
			default: // ticker stopped after n fires
				script = append(script, op{kind: 4, id: nextID, delay: Duration(1 + rng.Int64N(3000)), n: 1 + rng.IntN(5)})
				nextID++
			}
		}

		run := func(wheelAt int) (fired []int, now Time, steps uint64) {
			k := newKernelAt(wheelAt)
			events := map[int]*Event{}
			for _, o := range script {
				switch o.kind {
				case 0:
					id := o.id
					events[id] = k.Schedule(o.delay, func() { fired = append(fired, id) })
				case 1:
					events[o.id].Cancel() // nil-safe: only scheduled ids are drawn
				case 2:
					k.RunUntil(k.Now().Add(o.delay))
				case 3:
					id, n := o.id, o.n
					var tm *Timer
					tm = k.NewTimer(func() {
						fired = append(fired, id)
						if n--; n > 0 {
							tm.Arm(o.delay)
						}
					})
					tm.Arm(o.delay)
				case 4:
					id, n := o.id, o.n
					var tk *Ticker
					tk = k.NewTicker(o.delay, func(Time) {
						fired = append(fired, id)
						if n--; n <= 0 {
							tk.Stop()
						}
					})
				}
			}
			k.Run()
			return fired, k.Now(), k.Steps()
		}

		hf, hn, hs := run(math.MaxInt)
		for _, wheelAt := range []int{1, 24} { // 24: crossed mid-script
			wf, wn, ws := run(wheelAt)
			if fmt.Sprint(hf) != fmt.Sprint(wf) {
				t.Fatalf("seed %d: firing order diverged\nheap:  %v\nwheel at %d: %v", seed, hf, wheelAt, wf)
			}
			if hn != wn || hs != ws {
				t.Fatalf("seed %d: heap now=%v steps=%d, wheel at %d now=%v steps=%d", seed, hn, hs, wheelAt, wn, ws)
			}
		}
	}
}

const sim10s = 10 * Second

// TestCancelReleasesCallback pins the no-retention contract on both
// structures: cancelling or firing an event must drop the stored closure
// immediately — not when the slot is reused — so captured device state
// becomes collectable while the queue lives on.
func TestCancelReleasesCallback(t *testing.T) {
	for _, th := range structures {
		t.Run(th.name, func(t *testing.T) {
			k := newKernelAt(th.wheelAt)
			// Keep unrelated events pending so the queue stays populated.
			for i := 0; i < 16; i++ {
				k.Schedule(Duration(1000+i), func() {})
			}
			big := new([1 << 20]byte)
			collected := make(chan struct{})
			runtime.SetFinalizer(big, func(*[1 << 20]byte) { close(collected) })
			e := k.Schedule(500, func() { _ = big })
			big = nil
			e.Cancel()
			if e.fn != nil || e.next != nil || e.prev != nil || e.index != -1 {
				t.Fatalf("cancelled event retains state: fn=%v next=%v prev=%v index=%d",
					e.fn != nil, e.next, e.prev, e.index)
			}
			ok := false
			for i := 0; i < 20 && !ok; i++ {
				runtime.GC()
				select {
				case <-collected:
					ok = true
				default:
					runtime.Gosched()
				}
			}
			if !ok {
				t.Fatal("cancelled event's captured buffer was not collected")
			}
			if e.Pending() {
				t.Fatal("cancelled event still pending")
			}
			k.Run()
		})
	}
}

// TestFireReleasesCallback is the dispatch-path half: a fired event's
// closure must be dropped even though the Event object (a Timer's, say)
// lives on for reuse.
func TestFireReleasesCallback(t *testing.T) {
	for _, th := range structures {
		t.Run(th.name, func(t *testing.T) {
			k := newKernelAt(th.wheelAt)
			ran := false
			e := k.Schedule(1, func() { ran = true })
			k.Run()
			if !ran || e.fn != nil || e.next != nil || e.prev != nil || e.index != -1 {
				t.Fatalf("fired event retains state: ran=%v fn=%v next=%v prev=%v index=%d",
					ran, e.fn != nil, e.next, e.prev, e.index)
			}
		})
	}
}

// TestWheelTimerReuse checks Event-object reuse through the wheel's
// intrusive lists: cancel + re-arm + fire, repeatedly, with bucket
// neighbors present.
func TestWheelTimerReuse(t *testing.T) {
	k := newKernelAt(1)
	fired := 0
	tm := k.NewTimer(func() { fired++ })
	for i := 0; i < 50; i++ {
		// Neighbors in the same bucket before and after the timer.
		k.Schedule(10, func() {})
		tm.Arm(10)
		k.Schedule(10, func() {})
		if i%3 == 0 {
			tm.Cancel()
			tm.Arm(25)
		}
		k.Run()
	}
	if fired != 50 {
		t.Fatalf("fired = %d, want 50", fired)
	}
}

// TestWheelArmDoesNotAllocate pins the wheel's zero-allocation Arm hot
// path (after the level's slot table exists).
func TestWheelArmDoesNotAllocate(t *testing.T) {
	k := newKernelAt(1)
	tm := k.NewTimer(func() {})
	tm.Arm(1) // warm the level-0 slot table
	k.Run()
	allocs := testing.AllocsPerRun(100, func() {
		tm.Arm(1)
		k.Run()
	})
	if allocs != 0 {
		t.Fatalf("Arm+fire allocates %.1f objects per activation", allocs)
	}
}

// BenchmarkSched_FleetTimers is the timer-heavy fleet workload: N
// self-re-arming timers with deterministic pseudorandom periods
// multiplexed on ONE kernel — the shape of a long-horizon
// self-measurement fleet (E12), where every device keeps a measurement
// trigger and a collection timer pending. Per-event cost is pure
// scheduler work; ev/sec is the headline metric (bench:
// sim.schedule_ns_per_event). The N sweep, with each structure forced
// beside the kernel's own choice, is what wheelThreshold was read from.
func BenchmarkSched_FleetTimers(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024, 4096} {
		for _, th := range thresholds {
			b.Run(fmt.Sprintf("N%d/%s", n, th.name), func(b *testing.B) {
				k := newKernelAt(th.wheelAt)
				// splitmix-style period derivation: deterministic, spread
				// across ~1ms..67ms so buckets and heap layers churn.
				period := func(i int) Duration {
					x := uint64(i)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
					x ^= x >> 31
					return Duration(1_000_000 + x%67_000_000)
				}
				for i := 0; i < n; i++ {
					i := i
					var tm *Timer
					tm = k.NewTimer(func() { tm.Arm(period(i)) })
					tm.Arm(period(i))
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k.Step()
				}
				b.StopTimer()
				if b.Elapsed() > 0 {
					b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ev/sec")
				}
			})
		}
	}
}

// BenchmarkSched_ScheduleCancel exercises the allocate/cancel path
// against a standing population of N events (cancellation is O(1) on
// the wheel, a sift on the heap).
func BenchmarkSched_ScheduleCancel(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			k := NewKernel()
			for i := 0; i < n; i++ {
				k.Schedule(Duration(1+i%1000)*Microsecond, func() {})
			}
			fn := func() {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := k.Schedule(Duration(1+i%997)*Microsecond, fn)
				e.Cancel()
			}
		})
	}
}
