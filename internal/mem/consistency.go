package mem

import "saferatt/internal/sim"

// Coverage records when each block was read by an integrity-ensuring
// function F during one measurement. CoveredAt[i] is the instant block i
// was hashed; blocks with CoveredAt[i] < 0 were not covered.
type Coverage struct {
	CoveredAt []sim.Time
}

// NewCoverage returns a Coverage for n blocks with all entries marked
// uncovered.
func NewCoverage(n int) *Coverage {
	c := &Coverage{CoveredAt: make([]sim.Time, n)}
	for i := range c.CoveredAt {
		c.CoveredAt[i] = -1
	}
	return c
}

// ConsistentAt reports whether a measurement with the given per-block
// coverage is temporally consistent with the memory state at instant t,
// judging from the write log (paper §3.1 / Fig. 4 semantics).
//
// The measurement reflects block i as of CoveredAt[i]. It is consistent
// with memory-at-t iff for every covered block i no successful write
// touched block i strictly inside the interval between CoveredAt[i] and
// t (in either order). Writes exactly at a boundary instant are treated
// as visible to the later of the two operations at that instant and do
// not break consistency.
func ConsistentAt(log []Write, c *Coverage, t sim.Time) bool {
	for _, w := range log {
		ct := c.CoveredAt[w.Block]
		if ct < 0 {
			continue // uncovered blocks cannot break consistency
		}
		lo, hi := ct, t
		if lo > hi {
			lo, hi = hi, lo
		}
		if w.At > lo && w.At < hi {
			return false
		}
	}
	return true
}
