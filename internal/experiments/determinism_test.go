package experiments

import (
	"reflect"
	"testing"

	"saferatt/internal/core"
	"saferatt/internal/parallel"
	"saferatt/internal/sim"
)

// These tests pin the parallel engine's central contract: for every
// experiment, a run sharded over many workers is deep-equal to the
// serial run — same rows, same order, same bits. Trial counts are
// reduced; the point is schedule-independence, not statistics.

func TestE5Deterministic(t *testing.T) {
	serial := E5FireAlarm(E5Config{SimSizes: []int{1 << 20}, Parallelism: 1})
	par := E5FireAlarm(E5Config{SimSizes: []int{1 << 20}, Parallelism: 8})
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("E5 parallel != serial\nserial: %+v\npar:    %+v", serial, par)
	}
}

func TestE6Deterministic(t *testing.T) {
	cfg := E6Config{BlockCounts: []int{16}, Rounds: []int{1, 3}, Trials: 12, Seed: 77}
	cfg.Parallelism = 1
	serial := E6SMARM(cfg)
	cfg.Parallelism = 8
	par := E6SMARM(cfg)
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("E6 parallel != serial\nserial: %+v\npar:    %+v", serial, par)
	}
}

func TestE7Deterministic(t *testing.T) {
	cfg := E7Config{Dwells: []sim.Duration{2 * sim.Second, 8 * sim.Second}, Trials: 8, Seed: 21}
	cfg.Parallelism = 1
	serial := E7QoA(cfg)
	cfg.Parallelism = 8
	par := E7QoA(cfg)
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("E7 parallel != serial\nserial: %+v\npar:    %+v", serial, par)
	}
}

func TestE8Deterministic(t *testing.T) {
	cfg := E8Config{LossRates: []float64{0, 0.1}, Horizon: 40 * sim.Second,
		ScheduleTrials: 6, Seed: 5}
	cfg.Parallelism = 1
	serial := E8SeED(cfg)
	cfg.Parallelism = 8
	par := E8SeED(cfg)
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("E8 parallel != serial\nserial: %+v\npar:    %+v", serial, par)
	}
}

func TestE9Deterministic(t *testing.T) {
	cfg := E9Config{Overheads: []int{40}, Jitters: []sim.Duration{sim.Millisecond},
		Iterations: 100_000, Trials: 6, Seed: 9}
	cfg.Parallelism = 1
	serial := E9SoftwareRA(cfg)
	cfg.Parallelism = 8
	par := E9SoftwareRA(cfg)
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("E9 parallel != serial\nserial: %+v\npar:    %+v", serial, par)
	}
}

func TestE10Deterministic(t *testing.T) {
	cfg := E10Config{FloodPeriods: []sim.Duration{500 * sim.Millisecond},
		Horizon: 20 * sim.Second, MemSize: 1 << 20, Seed: 3}
	cfg.Parallelism = 1
	serial := E10DoS(cfg)
	cfg.Parallelism = 8
	par := E10DoS(cfg)
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("E10 parallel != serial\nserial: %+v\npar:    %+v", serial, par)
	}
}

func TestTable1Deterministic(t *testing.T) {
	cfg := Table1Config{Trials: 4, Seed: 11}
	cfg.Parallelism = 1
	serial := Table1(cfg)
	cfg.Parallelism = 8
	par := Table1(cfg)
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("Table1 parallel != serial\nserial: %+v\npar:    %+v", serial, par)
	}
}

// bothPaths runs an experiment once on the incremental measurement path
// and once on the streaming path and requires bit-identical results.
// This pins the incremental engine's core contract: dirty-block digest
// caching is a host-CPU optimization — detection outcomes, virtual-time
// traces and Monte Carlo statistics are path-invariant.
func bothPaths[T any](t *testing.T, name string, run func() T) {
	t.Helper()
	defer core.SetStreamingDefault(false)
	core.SetStreamingDefault(false)
	inc := run()
	core.SetStreamingDefault(true)
	st := run()
	if !reflect.DeepEqual(inc, st) {
		t.Fatalf("%s: incremental != streaming\nincremental: %+v\nstreaming:   %+v", name, inc, st)
	}
}

func TestTable1PathEquivalence(t *testing.T) {
	for _, workers := range []int{1, 8} {
		bothPaths(t, "Table1", func() []Table1Row {
			return Table1(Table1Config{Trials: 4, Seed: 11, Parallelism: workers})
		})
	}
}

func TestE6PathEquivalence(t *testing.T) {
	for _, workers := range []int{1, 8} {
		bothPaths(t, "E6", func() []E6Row {
			return E6SMARM(E6Config{BlockCounts: []int{16}, Rounds: []int{1, 3},
				Trials: 12, Seed: 77, Parallelism: workers})
		})
	}
}

func TestE7PathEquivalence(t *testing.T) {
	bothPaths(t, "E7", func() []E7Row {
		return E7QoA(E7Config{Dwells: []sim.Duration{2 * sim.Second}, Trials: 8, Seed: 21, Parallelism: 4})
	})
}

func TestE8PathEquivalence(t *testing.T) {
	bothPaths(t, "E8", func() E8Result {
		return E8SeED(E8Config{LossRates: []float64{0, 0.1}, Horizon: 40 * sim.Second,
			ScheduleTrials: 4, Seed: 5, Parallelism: 4})
	})
}

func TestE5PathEquivalence(t *testing.T) {
	bothPaths(t, "E5", func() []E5Row {
		return E5FireAlarm(E5Config{SimSizes: []int{1 << 20}, Parallelism: 4})
	})
}

func TestE9PathEquivalence(t *testing.T) {
	bothPaths(t, "E9", func() []E9Row {
		return E9SoftwareRA(E9Config{Overheads: []int{40}, Jitters: []sim.Duration{sim.Millisecond},
			Iterations: 100_000, Trials: 4, Seed: 9, Parallelism: 4})
	})
}

func TestE10PathEquivalence(t *testing.T) {
	bothPaths(t, "E10", func() []E10Row {
		return E10DoS(E10Config{FloodPeriods: []sim.Duration{500 * sim.Millisecond},
			Horizon: 20 * sim.Second, MemSize: 1 << 20, Seed: 3, Parallelism: 4})
	})
}

func TestAblationPathEquivalence(t *testing.T) {
	bothPaths(t, "A1", func() []A1Row {
		return AblationSMARMBlocks([]int{8, 16}, 10, 2)
	})
}

// TestAblationsDeterministic covers the positional-argument ablation
// APIs, which take their worker count from the package default.
func TestAblationsDeterministic(t *testing.T) {
	run := func() (a1 []A1Row, a2 []A2Row, a4 []A4Row, a5 []A5Row) {
		a1 = AblationSMARMBlocks([]int{8, 16}, 10, 2)
		a2 = AblationLockGranularity([]int{8, 16}, 2)
		a4 = AblationSwarmScale([]int{2, 4}, 2)
		a5 = AblationDeviceClass(sim.Second)
		return
	}
	parallel.SetDefault(1)
	s1, s2, s4, s5 := run()
	parallel.SetDefault(8)
	p1, p2, p4, p5 := run()
	parallel.SetDefault(0) // restore GOMAXPROCS default
	if !reflect.DeepEqual(s1, p1) {
		t.Fatalf("A1 parallel != serial\nserial: %+v\npar:    %+v", s1, p1)
	}
	if !reflect.DeepEqual(s2, p2) {
		t.Fatalf("A2 parallel != serial\nserial: %+v\npar:    %+v", s2, p2)
	}
	if !reflect.DeepEqual(s4, p4) {
		t.Fatalf("A4 parallel != serial\nserial: %+v\npar:    %+v", s4, p4)
	}
	if !reflect.DeepEqual(s5, p5) {
		t.Fatalf("A5 parallel != serial\nserial: %+v\npar:    %+v", s5, p5)
	}
}
