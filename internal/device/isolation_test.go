package device

import (
	"errors"
	"testing"

	"saferatt/internal/sim"
)

func TestRegionHelpers(t *testing.T) {
	r := Region{Start: 4, Count: 3}
	if !r.Contains(4) || !r.Contains(6) || r.Contains(3) || r.Contains(7) {
		t.Fatal("Contains wrong")
	}
	if r.End() != 7 {
		t.Fatal("End wrong")
	}
}

func TestProcessIsolationEnforced(t *testing.T) {
	d, k := newTestDevice(t, zeroOverheadProfile())
	// Memory: 16 blocks of 64B. Two processes.
	a := d.NewTask("a", 5)
	b := d.NewTask("b", 5)
	d.EnableProcessIsolation(map[*Task]Region{
		a: {Start: 1, Count: 4},
		b: {Start: 5, Count: 4},
	})

	var inErr, outErr, crossErr error
	a.Submit(sim.Microsecond, func() {
		inErr = d.Mem.Write(2*64, []byte{1})    // own region: ok
		outErr = d.Mem.Write(10*64, []byte{1})  // unowned region: denied
		crossErr = d.Mem.Write(6*64, []byte{1}) // b's region: denied
	})
	k.Run()

	if inErr != nil {
		t.Fatalf("own-region write denied: %v", inErr)
	}
	var iso *IsolationError
	if !errors.As(outErr, &iso) || !errors.As(crossErr, &iso) {
		t.Fatalf("cross-region writes not IsolationError: %v / %v", outErr, crossErr)
	}
	if iso.Error() == "" {
		t.Fatal("empty error message")
	}

	// Unregistered tasks (attestation ROM) are unrestricted.
	rom := d.NewTask("mp", 9)
	var romErr error
	rom.Submit(sim.Microsecond, func() { romErr = d.Mem.Write(6*64, []byte{2}) })
	k.Run()
	if romErr != nil {
		t.Fatalf("unregistered task restricted: %v", romErr)
	}

	// Disabling restores free writes.
	d.Mem.SetGuard(nil)
	var freeErr error
	a.Submit(sim.Microsecond, func() { freeErr = d.Mem.Write(10*64, []byte{1}) })
	k.Run()
	if freeErr != nil {
		t.Fatalf("write denied after the guard was removed: %v", freeErr)
	}
}

func TestIsolationOutsideTaskContext(t *testing.T) {
	d, _ := newTestDevice(t, zeroOverheadProfile())
	a := d.NewTask("a", 5)
	d.EnableProcessIsolation(map[*Task]Region{a: {Start: 1, Count: 1}})
	// Writes from outside any task (environment, provisioning) pass.
	if err := d.Mem.Write(10*64, []byte{1}); err != nil {
		t.Fatalf("non-task write denied: %v", err)
	}
}

func TestSuspendResume(t *testing.T) {
	d, k := newTestDevice(t, zeroOverheadProfile())
	a := d.NewTask("a", 5)
	ran := false
	a.Suspend()
	if !a.Suspended() {
		t.Fatal("not suspended")
	}
	a.Submit(sim.Microsecond, func() { ran = true })
	k.RunUntil(k.Now().Add(sim.Second))
	if ran {
		t.Fatal("suspended task ran")
	}
	a.Resume()
	k.Run()
	if !ran {
		t.Fatal("resumed task never ran")
	}
	if a.Suspended() {
		t.Fatal("still suspended")
	}
}

func TestSuspendedTaskDoesNotBlockOthers(t *testing.T) {
	d, k := newTestDevice(t, zeroOverheadProfile())
	hi := d.NewTask("hi", 10)
	lo := d.NewTask("lo", 1)
	hi.Suspend()
	hi.Submit(sim.Microsecond, nil)
	ran := false
	lo.Submit(sim.Microsecond, func() { ran = true })
	k.RunUntil(k.Now().Add(sim.Second))
	if !ran {
		t.Fatal("lower-priority task starved by a suspended task")
	}
}

func TestRunningVisibleInsideStepCompletion(t *testing.T) {
	d, k := newTestDevice(t, zeroOverheadProfile())
	a := d.NewTask("a", 5)
	var seen *Task
	a.Submit(sim.Microsecond, func() { seen = d.Running() })
	k.Run()
	if seen != a {
		t.Fatal("Running() did not report the task during its completion fn")
	}
}
