package device

import (
	"testing"

	"saferatt/internal/costmodel"
	"saferatt/internal/mem"
	"saferatt/internal/sim"
	"saferatt/internal/trace"
)

// zeroOverheadProfile removes context-switch noise so scheduling tests
// can assert exact times.
func zeroOverheadProfile() *costmodel.Profile {
	p := costmodel.ODROIDXU4()
	p.CtxSwitch = 0
	p.LockOp = 0
	return p
}

func newTestDevice(t *testing.T, prof *costmodel.Profile) (*Device, *sim.Kernel) {
	t.Helper()
	k := sim.NewKernel()
	m := mem.New(mem.Config{Size: 1024, BlockSize: 64, Clock: k.Now})
	d := New(Config{Kernel: k, Mem: m, Profile: prof, Trace: &trace.Log{}})
	return d, k
}

func TestNewRequiresDeps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{})
}

func TestDefaultKeyInstalled(t *testing.T) {
	d, _ := newTestDevice(t, zeroOverheadProfile())
	if len(d.AttestationKey) == 0 {
		t.Fatal("no default attestation key")
	}
}

func TestSingleTaskRunsSteps(t *testing.T) {
	d, k := newTestDevice(t, zeroOverheadProfile())
	task := d.NewTask("app", 1)
	var done []sim.Time
	task.Submit(10*sim.Millisecond, func() { done = append(done, k.Now()) })
	task.Submit(5*sim.Millisecond, func() { done = append(done, k.Now()) })
	k.Run()
	if len(done) != 2 {
		t.Fatalf("%d steps completed, want 2", len(done))
	}
	if done[0] != sim.Time(10*sim.Millisecond) || done[1] != sim.Time(15*sim.Millisecond) {
		t.Fatalf("completion times %v", done)
	}
	st := task.Stats()
	if st.Steps != 2 || st.Busy != 15*sim.Millisecond {
		t.Fatalf("stats %+v", st)
	}
}

func TestPriorityPreemptionAtStepBoundary(t *testing.T) {
	d, k := newTestDevice(t, zeroOverheadProfile())
	low := d.NewTask("attest", 1)
	high := d.NewTask("alarm", 10)

	var order []string
	// Low-priority task has 4 steps of 10ms each.
	for i := 0; i < 4; i++ {
		low.Submit(10*sim.Millisecond, func() { order = append(order, "low") })
	}
	// High-priority work arrives at t=15ms, mid-step-2.
	k.At(sim.Time(15*sim.Millisecond), func() {
		high.Submit(sim.Millisecond, func() { order = append(order, "high") })
	})
	k.Run()

	// Step boundary preemption: low step ending at 20ms completes, then
	// high runs, then low resumes.
	want := []string{"low", "low", "high", "low", "low"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	// High waited from 15ms to 20ms.
	if w := high.Stats().MaxWait; w != 5*sim.Millisecond {
		t.Fatalf("high MaxWait = %v, want 5ms", w)
	}
	if p := low.Stats().Preemptions; p != 1 {
		t.Fatalf("low Preemptions = %d, want 1", p)
	}
}

func TestAtomicSectionBlocksHigherPriority(t *testing.T) {
	d, k := newTestDevice(t, zeroOverheadProfile())
	attest := d.NewTask("attest", 1)
	alarm := d.NewTask("alarm", 10)

	var alarmAt sim.Time
	// Attestation runs 5 x 10ms atomically.
	attest.Submit(0, func() {
		d.DisableInterrupts(attest)
		for i := 0; i < 5; i++ {
			i := i
			attest.Submit(10*sim.Millisecond, func() {
				if i == 4 {
					d.EnableInterrupts()
				}
			})
		}
	})
	// Fire at t=12ms.
	k.At(sim.Time(12*sim.Millisecond), func() {
		alarm.Submit(sim.Millisecond, func() { alarmAt = k.Now() })
	})
	k.Run()

	// Alarm cannot run until the atomic section ends at 50ms.
	if alarmAt != sim.Time(51*sim.Millisecond) {
		t.Fatalf("alarm completed at %v, want 51ms", alarmAt)
	}
}

func TestInterruptsDisabledFlag(t *testing.T) {
	d, _ := newTestDevice(t, zeroOverheadProfile())
	task := d.NewTask("x", 1)
	if d.InterruptsDisabled() {
		t.Fatal("interrupts disabled at start")
	}
	d.DisableInterrupts(task)
	if !d.InterruptsDisabled() {
		t.Fatal("DisableInterrupts had no effect")
	}
	d.EnableInterrupts()
	if d.InterruptsDisabled() {
		t.Fatal("EnableInterrupts had no effect")
	}
}

func TestAtomicOwnerIdleMeansCPUIdle(t *testing.T) {
	d, k := newTestDevice(t, zeroOverheadProfile())
	owner := d.NewTask("owner", 1)
	other := d.NewTask("other", 5)
	d.DisableInterrupts(owner)
	ran := false
	other.Submit(sim.Millisecond, func() { ran = true })
	k.RunUntil(k.Now().Add(10 * sim.Millisecond))
	if ran {
		t.Fatal("non-owner ran during atomic section")
	}
	d.EnableInterrupts()
	k.Run()
	if !ran {
		t.Fatal("non-owner never ran after atomic section ended")
	}
}

func TestContextSwitchChargedOnSwitch(t *testing.T) {
	p := zeroOverheadProfile()
	p.CtxSwitch = sim.Millisecond
	d, k := newTestDevice(t, p)
	a := d.NewTask("a", 1)
	b := d.NewTask("b", 2)
	a.Submit(10*sim.Millisecond, nil)
	b.Submit(10*sim.Millisecond, nil)
	k.Run()
	// Two switches (idle->b, b->a), 1ms each, plus 20ms work.
	if k.Now() != sim.Time(22*sim.Millisecond) {
		t.Fatalf("finished at %v, want 22ms", k.Now())
	}
}

func TestNoContextSwitchWithinSameTask(t *testing.T) {
	p := zeroOverheadProfile()
	p.CtxSwitch = sim.Millisecond
	d, k := newTestDevice(t, p)
	a := d.NewTask("a", 1)
	a.Submit(time10(), nil)
	a.Submit(time10(), nil)
	k.Run()
	// One switch (idle->a) then back-to-back steps.
	if k.Now() != sim.Time(21*sim.Millisecond) {
		t.Fatalf("finished at %v, want 21ms", k.Now())
	}
}

func time10() sim.Duration { return 10 * sim.Millisecond }

func TestTieBreaksByCreationOrder(t *testing.T) {
	d, k := newTestDevice(t, zeroOverheadProfile())
	first := d.NewTask("first", 5)
	second := d.NewTask("second", 5)
	var order []string
	second.Submit(sim.Millisecond, func() { order = append(order, "second") })
	first.Submit(sim.Millisecond, func() { order = append(order, "first") })
	k.Run()
	if order[0] != "first" {
		t.Fatalf("order = %v, want creation-order tie break", order)
	}
}

func TestNegativeDurationPanics(t *testing.T) {
	d, _ := newTestDevice(t, zeroOverheadProfile())
	a := d.NewTask("a", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Submit(-1, nil)
}

func TestUtilizationAndBusyTime(t *testing.T) {
	d, k := newTestDevice(t, zeroOverheadProfile())
	a := d.NewTask("a", 1)
	a.Submit(10*sim.Millisecond, nil)
	k.Run()
	k.RunUntil(sim.Time(20 * sim.Millisecond)) // 10ms idle
	if busy := a.Stats().Busy; busy != 10*sim.Millisecond || k.Now() != sim.Time(20*sim.Millisecond) {
		t.Fatalf("busy %v of %v, want 10ms of 20ms", busy, k.Now())
	}
}

func TestRunningDuringStep(t *testing.T) {
	d, k := newTestDevice(t, zeroOverheadProfile())
	a := d.NewTask("a", 1)
	a.Submit(10*sim.Millisecond, nil)
	var during *Task
	k.At(sim.Time(5*sim.Millisecond), func() { during = d.Running() })
	k.Run()
	if during != a {
		t.Fatal("Running() did not report the active task mid-step")
	}
	if d.Running() != nil {
		t.Fatal("Running() non-nil when idle")
	}
}

func TestTraceRecordsTaskStarts(t *testing.T) {
	d, k := newTestDevice(t, zeroOverheadProfile())
	a := d.NewTask("app", 1)
	a.Submit(sim.Millisecond, nil)
	k.Run()
	if ev, ok := d.Trace.First(trace.KindTaskStart); !ok || ev.Actor != "app" {
		t.Fatalf("missing task-start trace event: %+v ok=%v", ev, ok)
	}
}

func TestResponseTimeTracked(t *testing.T) {
	d, k := newTestDevice(t, zeroOverheadProfile())
	low := d.NewTask("low", 1)
	hi := d.NewTask("hi", 9)
	low.Submit(20*sim.Millisecond, nil)
	k.At(sim.Time(5*sim.Millisecond), func() {
		hi.Submit(2*sim.Millisecond, nil)
	})
	k.Run()
	// hi submitted at 5ms, started at 20ms, done at 22ms: response 17ms.
	if r := hi.Stats().MaxResponse; r != 17*sim.Millisecond {
		t.Fatalf("MaxResponse = %v, want 17ms", r)
	}
}
