package core

import (
	"testing"

	"saferatt/internal/device"
	"saferatt/internal/suite"
)

func TestMeasurementErrorPathDeliversAsync(t *testing.T) {
	r := newRig(t, 2048, 256)
	task := r.dev.NewTask("mp", 5)
	opts := Preset(SMART, suite.SHA256)
	opts.Signer = "NOT-A-SIGNER"
	m, err := NewMeasurement(r.dev, task, opts, nil, 0)
	if err != nil {
		t.Fatal(err) // options validate; the signer fails at Start
	}
	var gotErr error
	done := false
	m.Start(func(rep *Report, err error) {
		done = true
		gotErr = err
		if rep != nil {
			t.Error("report delivered alongside error")
		}
	})
	if done {
		t.Fatal("error delivered synchronously")
	}
	r.k.Run()
	if !done || gotErr == nil {
		t.Fatalf("error not delivered: done=%v err=%v", done, gotErr)
	}

	// Session propagates the same failure.
	s, err := NewSession(r.dev, task, opts, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sessErr error
	s.Start(func(rr []*Report, err error) { sessErr = err })
	r.k.Run()
	if sessErr == nil {
		t.Fatal("session swallowed the error")
	}
	if got := r.m.LockedCount(); got != 1 {
		t.Fatalf("failed session holding locks: %d locked, want 1 (ROM)", got)
	}
}

func TestTyTANProcessesAccessor(t *testing.T) {
	r := newRig(t, 4096, 256)
	procs := []*Process{
		{Name: "a", Task: r.dev.NewTask("a", 1), Region: device.Region{Start: 1, Count: 7}},
		{Name: "b", Task: r.dev.NewTask("b", 1), Region: device.Region{Start: 8, Count: 8}},
	}
	ty, err := NewTyTAN(r.dev, 5, procs)
	if err != nil {
		t.Fatal(err)
	}
	var reports map[string]*Report
	ty.MeasureAll([]byte("n"), func(r map[string]*Report, err error) {
		if err != nil {
			t.Fatalf("MeasureAll: %v", err)
		}
		reports = r
	})
	r.k.Run()
	if len(reports) != 2 {
		t.Fatalf("reports: %v", reports)
	}
}
