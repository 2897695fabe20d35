package core

import (
	"testing"

	"saferatt/internal/sim"
)

func TestSeEDScheduleDeterministicAndJittered(t *testing.T) {
	seed := []byte("shared-seed")
	base, jitter := 10*sim.Second, 5*sim.Second
	var prev sim.Time
	distinct := false
	var first sim.Duration
	for i := uint64(1); i <= 10; i++ {
		tt := TriggerTime(seed, i, 0, base, jitter)
		if tt <= prev {
			t.Fatalf("trigger %d at %v not after %v", i, tt, prev)
		}
		d := tt.Sub(prev)
		if d < base || d >= base+jitter {
			t.Fatalf("gap %d = %v outside [base, base+jitter)", i, d)
		}
		if i == 1 {
			first = d
		} else if d != first {
			distinct = true
		}
		prev = tt
	}
	if !distinct {
		t.Fatal("schedule has no jitter")
	}
	// Determinism.
	if TriggerTime(seed, 5, 0, base, jitter) != TriggerTime(seed, 5, 0, base, jitter) {
		t.Fatal("TriggerTime not deterministic")
	}
	if ScheduleDelay(seed, 1, base, 0) != base {
		t.Fatal("zero jitter should return base")
	}
}
