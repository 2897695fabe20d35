package qoa

import (
	"math"
	"testing"

	"saferatt/internal/sim"
)

func TestSMARMEscapeSingleApproachesEInverse(t *testing.T) {
	// (1-1/n)^n increases toward e^-1 ≈ 0.3679.
	prev := 0.0
	for _, n := range []int{2, 4, 8, 16, 64, 256, 4096} {
		p := SMARMEscapeSingle(n)
		if p <= prev {
			t.Fatalf("escape probability not increasing at n=%d: %v <= %v", n, p, prev)
		}
		if p >= math.Exp(-1) {
			t.Fatalf("escape probability %v at n=%d exceeds e^-1", p, n)
		}
		prev = p
	}
	if got := SMARMEscapeSingle(4096); math.Abs(got-math.Exp(-1)) > 0.001 {
		t.Fatalf("large-n escape %v, want ~e^-1", got)
	}
	if SMARMEscapeSingle(1) != 0 {
		t.Fatal("single block should give zero escape probability")
	}
}

// Paper §3.2: "after 13 checks that probability is below 10^-6". Taken
// literally with the e^-1 limit this is slightly off (e^-13 ≈ 2.3e-6);
// the exact (1-1/n)^n form makes it true for small block counts
// (n <= ~10), and 14 checks suffice for every n. This test pins the
// actual mathematics; EXPERIMENTS.md records the discrepancy.
func TestThirteenChecksBelowTenToMinusSix(t *testing.T) {
	if p := SMARMEscape(8, 13); p >= 1e-6 {
		t.Errorf("n=8: escape after 13 checks = %.3g, want < 1e-6", p)
	}
	// At larger n, 13 checks land slightly above 1e-6 (within ~2x)...
	if p := SMARMEscape(32, 13); p < 1e-6 || p > 2.5e-6 {
		t.Errorf("n=32: escape after 13 checks = %.3g, want within (1e-6, 2.5e-6)", p)
	}
	// ...and 14 checks are below 1e-6 for every n.
	for _, n := range []int{8, 16, 32, 1024, 4096} {
		if p := SMARMEscape(n, 14); p >= 1e-6 {
			t.Errorf("n=%d: escape after 14 checks = %.3g, want < 1e-6", n, p)
		}
	}
}

func TestSMARMEscapeMultiRound(t *testing.T) {
	n := 32
	single := SMARMEscapeSingle(n)
	if got := SMARMEscape(n, 3); math.Abs(got-single*single*single) > 1e-12 {
		t.Fatalf("3 rounds: %v, want %v", got, single*single*single)
	}
	if SMARMEscape(n, 0) != 1 {
		t.Fatal("0 rounds should be certain escape")
	}
}

func TestTransientDetectProb(t *testing.T) {
	tm := sim.Duration(10 * sim.Second)
	cases := []struct {
		d    sim.Duration
		want float64
	}{
		{0, 0},
		{-sim.Second, 0},
		{sim.Second, 0.1},
		{5 * sim.Second, 0.5},
		{10 * sim.Second, 1},
		{30 * sim.Second, 1},
	}
	for _, c := range cases {
		if got := TransientDetectProb(c.d, tm); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("d=%v: got %v, want %v", c.d, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive period")
		}
	}()
	TransientDetectProb(sim.Second, 0)
}

func TestDetectionLatencies(t *testing.T) {
	tm, tc := 10*sim.Second, 60*sim.Second
	if MeanDetectionLatency(tm, tc) != 35*sim.Second {
		t.Error("mean latency")
	}
}

func TestBinomialCI(t *testing.T) {
	if BinomialCI(0.5, 0) != 1 {
		t.Error("n=0 should be maximally uncertain")
	}
	if got := BinomialCI(0.5, 10000); math.Abs(got-0.0098) > 0.0002 {
		t.Errorf("CI half-width %v, want ~0.0098", got)
	}
}
