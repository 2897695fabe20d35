package swarm

import (
	"reflect"
	"testing"

	"saferatt/internal/sim"
)

// smallFleet is a reduced configuration that still exercises both
// schedule modes, infections and collections in a few host seconds.
func smallFleet(mode SelfMode) SelfFleetConfig {
	return SelfFleetConfig{
		EngineConfig: EngineConfig{Seed: 42},
		Devices:      60,
		Mode:         mode,
		TM:           2 * sim.Minute,
		TC:           10 * sim.Minute,
		Horizon:      2 * sim.Hour,
		Dwell:        5 * sim.Minute, // > TM: every infection overlaps a measurement
		InfectRate:   0.25,
	}
}

// TestSelfFleetDetection: a reduced E12 fleet, ERASMUS and SeED, with
// every infection dwelling longer than T_M — each must be detected.
func TestSelfFleetDetection(t *testing.T) {
	for _, mode := range []SelfMode{SelfErasmus, SelfSeED} {
		res, err := RunSelfFleet(smallFleet(mode))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Measurements == 0 || res.Collections == 0 || res.Reports == 0 {
			t.Fatalf("%v: fleet did not run: %+v", mode, res)
		}
		if res.Infections == 0 {
			t.Fatalf("%v: no device was infected at rate 0.25 over 60 devices", mode)
		}
		// Dwell > TM: a measurement lands inside every infection window
		// (SeED gaps can stretch to TM+Jitter = 3 min, still < 5 min),
		// and every window ends at least one TC before the horizon, so
		// the evidence is always collected.
		if res.Detected != res.Infections {
			t.Errorf("%v: detected %d of %d infections (missed %d) with dwell > TM",
				mode, res.Detected, res.Infections, res.Missed)
		}
		if res.BadReports == 0 {
			t.Errorf("%v: no bad reports despite %d infections", mode, res.Infections)
		}
		if len(res.Latencies) != res.Detected {
			t.Fatalf("%v: %d latencies for %d detections", mode, len(res.Latencies), res.Detected)
		}
		// Latency is bounded by the worst case: the covering measurement
		// can end up to TM+Jitter after infection end (a session started
		// just before the window closed), plus a full collection period.
		worst := res.Latencies[0]
		for _, l := range res.Latencies {
			if l < 0 {
				t.Fatalf("%v: negative latency %v", mode, l)
			}
			if l > worst {
				worst = l
			}
		}
		cfg := smallFleet(mode)
		if lim := cfg.TM + cfg.TM/2 + cfg.TC + sim.Minute; worst > lim {
			t.Errorf("%v: worst latency %v exceeds TM+jitter+TC bound %v", mode, worst, lim)
		}
	}
}

// TestSelfFleetCleanFleet: with nothing infected the fleet verifies
// reports and raises no detection.
func TestSelfFleetCleanFleet(t *testing.T) {
	cfg := smallFleet(SelfErasmus)
	cfg.InfectRate = 0
	res, err := RunSelfFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Infections != 0 || res.Detected != 0 || res.BadReports != 0 {
		t.Fatalf("clean fleet produced detections: %+v", res)
	}
	if res.Reports == 0 {
		t.Fatal("clean fleet verified no reports")
	}
}

// normalizeSelf zeroes the fields that legitimately vary with shard
// count (cache locality), leaving everything the determinism contract
// covers.
func normalizeSelf(r *SelfFleetResult) *SelfFleetResult {
	r.TagsComputed = 0
	return r
}

// TestSelfFleetInvariance pins the engine's central contract: the shard
// count, and with it the structure each shard's kernel keeps its queue
// on, changes host cost only — every reported bit (counts, latencies in
// device order, total events, final instant) is identical. The fleet is
// sized to sit on both sides of sim's wheel threshold (256 pending
// events): one shard starts with two armed timers for each of 240
// devices and is on the wheel before it runs; four shards of 60 peak
// near 150 and stay on the heap.
func TestSelfFleetInvariance(t *testing.T) {
	for _, mode := range []SelfMode{SelfErasmus, SelfSeED} {
		var base *SelfFleetResult
		for _, shards := range []int{1, 4} {
			cfg := smallFleet(mode)
			cfg.Devices = 240
			cfg.Parallelism = shards
			res, err := RunSelfFleet(cfg)
			if err != nil {
				t.Fatalf("%v/shards=%d: %v", mode, shards, err)
			}
			normalizeSelf(res)
			if base == nil {
				base = res
				continue
			}
			if !reflect.DeepEqual(base, res) {
				t.Fatalf("%v: shards=%d diverges\nbase: %+v\ngot:  %+v",
					mode, shards, base, res)
			}
		}
	}
}

func TestSelfFleetSkipsOverlappingTicks(t *testing.T) {
	// A TM far below the measurement duration forces tick overlap; the
	// engine must skip, not stack, sessions.
	cfg := smallFleet(SelfErasmus)
	cfg.Devices = 2
	cfg.TM = 20 * sim.Microsecond
	cfg.TC = 200 * sim.Millisecond
	cfg.Horizon = 400 * sim.Millisecond
	cfg.InfectRate = 0
	res, err := RunSelfFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedTicks == 0 {
		t.Fatalf("expected overlapping ticks to be skipped: %+v", res)
	}
}
