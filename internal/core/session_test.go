package core

import (
	"bytes"
	"reflect"
	"testing"

	"saferatt/internal/costmodel"
	"saferatt/internal/device"
	"saferatt/internal/mem"
	"saferatt/internal/sim"
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

// TestSessionRerunMatchesFresh pins Rerun to a fresh session: a
// session rerun on one device yields, run for run, the reports a new
// session per run yields on a twin device at the same kernel times —
// and a later run overwrites nothing an earlier one delivered.
func TestSessionRerunMatchesFresh(t *testing.T) {
	type row struct {
		name string
		opts Options
	}
	var rows []row
	for _, id := range Mechanisms() {
		rows = append(rows, row{string(id), Preset(id, suite.SHA256)})
	}
	smarm3 := Preset(SMARM, suite.SHA256)
	smarm3.Rounds = 3
	reported := Preset(NoLock, suite.SHA256)
	reported.Data = DataRegion{Blocks: []int{3, 9}, Policy: DataReported}
	zeroed := Preset(HYDRA, suite.SHA256)
	zeroed.Data = DataRegion{Blocks: []int{5}, Policy: DataZeroed}
	region := Preset(NoLock, suite.SHA256)
	region.Region = device.Region{Start: 4, Count: 6}
	rows = append(rows,
		row{"SMARM/rounds-3", smarm3},
		row{"No-Lock/data-reported", reported},
		row{"HYDRA/data-zeroed", zeroed},
		row{"No-Lock/region", region},
	)
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			reused, fresh := newRig(t, 4096, 256), newRig(t, 4096, 256)
			rtask, ftask := reused.dev.NewTask("mp", 5), fresh.dev.NewTask("mp", 5)
			s, err := NewSession(reused.dev, rtask, tc.opts, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			var got, want [][]*Report
			collect := func(into *[][]*Report) func([]*Report, error) {
				return func(rr []*Report, err error) {
					if err != nil {
						t.Fatalf("run %d: %v", len(*into), err)
					}
					*into = append(*into, rr)
				}
			}
			for run := 0; run < 4; run++ {
				nonce := []byte{'n', byte(run)}
				ctr := uint64(10 + run)
				s.Rerun(nonce, ctr, collect(&got))
				fs, err := NewSession(fresh.dev, ftask, tc.opts, nonce, ctr)
				if err != nil {
					t.Fatal(err)
				}
				fs.Start(collect(&want))
				reused.k.Run()
				fresh.k.Run()
				if tc.opts.ExtRelease {
					s.Release()
					fs.Release()
				}
				// Change memory between runs so no two runs agree.
				for _, r := range []*rig{reused, fresh} {
					if err := r.m.Poke((1+run)*256+run, byte(run+1)); err != nil {
						t.Fatal(err)
					}
				}
			}
			if len(got) != 4 || len(want) != 4 {
				t.Fatalf("%d reused runs and %d fresh runs delivered, want 4 each", len(got), len(want))
			}
			for run := range want {
				if len(got[run]) != tc.opts.NumRounds() {
					t.Fatalf("run %d delivered %d reports, want %d", run, len(got[run]), tc.opts.NumRounds())
				}
				if !reflect.DeepEqual(got[run], want[run]) {
					t.Fatalf("run %d: reused session's reports differ from a fresh session's\n got %+v\nwant %+v", run, got[run][0], want[run][0])
				}
			}
			if bytes.Equal(got[0][0].Tag, got[1][0].Tag) {
				t.Fatal("runs 0 and 1 have one tag: the memory change between them did not show")
			}
		})
	}

	// A rerun while the previous run holds its -Ext locks is refused
	// and leaves them held; after Release the session runs again.
	t.Run("ext-held", func(t *testing.T) {
		r := newRig(t, 4096, 256)
		s, err := NewSession(r.dev, r.dev.NewTask("mp", 5), Preset(AllLockExt, suite.SHA256), []byte("n"), 1)
		if err != nil {
			t.Fatal(err)
		}
		s.Start(func(_ []*Report, err error) {
			if err != nil {
				t.Fatal(err)
			}
		})
		r.k.Run()
		var rerunErr error
		called := false
		s.Rerun([]byte("m"), 2, func(rr []*Report, err error) { called, rerunErr = true, err })
		if !called || rerunErr == nil {
			t.Fatalf("rerun with -Ext locks held: called %v, err %v; want an error", called, rerunErr)
		}
		if got := r.m.LockedCount(); got != r.m.NumBlocks() {
			t.Fatalf("refused rerun left %d of %d blocks locked", got, r.m.NumBlocks())
		}
		s.Release()
		var reports []*Report
		s.Rerun([]byte("m"), 2, func(rr []*Report, err error) {
			if err != nil {
				t.Fatal(err)
			}
			reports = rr
		})
		r.k.Run()
		if len(reports) != 1 || reports[0].Counter != 2 {
			t.Fatalf("rerun after Release delivered %+v", reports)
		}
	})

	// A rerun before the previous run finished panics, like a
	// measurement started twice.
	t.Run("in-flight", func(t *testing.T) {
		r := newRig(t, 4096, 256)
		s, err := NewSession(r.dev, r.dev.NewTask("mp", 5), Preset(NoLock, suite.SHA256), []byte("n"), 1)
		if err != nil {
			t.Fatal(err)
		}
		s.Start(func([]*Report, error) {})
		defer func() {
			if recover() == nil {
				t.Fatal("rerun of a running session did not panic")
			}
		}()
		s.Rerun([]byte("m"), 2, func([]*Report, error) {})
	})
}

// TestSessionRerunAllocs pins what a rerun allocates: only what it
// hands out — the report, its coverage (two objects) and tag, and the
// slice done receives. A periodic prover pays this per measurement.
func TestSessionRerunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race suite")
	}
	k := sim.NewKernel()
	m := mem.New(mem.Config{Size: 4096, BlockSize: 256, ROMBlocks: 1, Clock: k.Now})
	d := device.New(device.Config{Kernel: k, Mem: m, Profile: costmodel.ODROIDXU4()})
	s, err := NewSession(d, d.NewTask("mp", 5), Preset(NoLock, suite.SHA256), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	nonce := []byte("nonce-1")
	var ctr uint64
	done := func(_ []*Report, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	run := func() {
		ctr++
		s.Rerun(nonce, ctr, done)
		k.Run()
	}
	run() // pooled taggers and scratch exist
	a := testing.AllocsPerRun(50, run)
	t.Logf("%.1f allocs a rerun", a)
	if a > rerunAllocs {
		t.Fatalf("a single-round No-Lock rerun allocates %.1f objects, want <= %d", a, rerunAllocs)
	}
}

const rerunAllocs = 5
