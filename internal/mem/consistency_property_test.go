package mem

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"saferatt/internal/sim"
)

// randomScenario builds random coverage instants and a random write
// log over n blocks.
func randomScenario(rng *rand.Rand, n int) (*Coverage, []Write) {
	c := NewCoverage(n)
	for i := 0; i < n; i++ {
		if rng.IntN(8) == 0 {
			continue // leave some blocks uncovered
		}
		c.CoveredAt[i] = sim.Time(rng.Int64N(1000))
	}
	var log []Write
	for i := 0; i < rng.IntN(30); i++ {
		log = append(log, Write{
			At:    sim.Time(rng.Int64N(1000)),
			Block: rng.IntN(n),
		})
	}
	return c, log
}

// Property: consistency at the cover instant itself always holds for a
// single-block view — a write strictly inside an empty interval is
// impossible.
func TestPropertyConsistencyAtCoverInstant(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xC0))
		n := 2 + rng.IntN(16)
		c, log := randomScenario(rng, n)
		// Probe each covered block's own instant with all OTHER blocks
		// uncovered: must be consistent.
		for b := 0; b < n; b++ {
			if c.CoveredAt[b] < 0 {
				continue
			}
			solo := NewCoverage(n)
			solo.CoveredAt[b] = c.CoveredAt[b]
			if !ConsistentAt(log, solo, solo.CoveredAt[b]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: an empty log is consistent at every probe; adding writes
// can only remove consistency, never add it (anti-monotonicity in the
// log).
func TestPropertyLogMonotonicity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xC1))
		n := 2 + rng.IntN(16)
		c, log := randomScenario(rng, n)
		probes := []sim.Time{0, 250, 500, 750, 1000}
		for _, p := range probes {
			if !ConsistentAt(nil, c, p) {
				return false // empty log must always be consistent
			}
		}
		// Prefixes of the log: consistency is anti-monotone.
		for _, p := range probes {
			prev := true
			for k := 0; k <= len(log); k++ {
				cur := ConsistentAt(log[:k], c, p)
				if cur && !prev {
					return false // regained consistency by adding writes
				}
				prev = cur
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: writes to uncovered blocks never affect consistency.
func TestPropertyUncoveredWritesIrrelevant(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xC3))
		n := 4 + rng.IntN(12)
		c, log := randomScenario(rng, n)
		// Pick an uncovered block (force one).
		u := rng.IntN(n)
		c.CoveredAt[u] = -1
		probe := sim.Time(rng.Int64N(1000))
		base := ConsistentAt(log, c, probe)
		// Add many writes to the uncovered block: same verdict.
		extended := append(append([]Write(nil), log...),
			Write{At: 1, Block: u}, Write{At: 500, Block: u}, Write{At: 999, Block: u})
		return ConsistentAt(extended, c, probe) == base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
