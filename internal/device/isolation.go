package device

import "fmt"

// Region is a contiguous range of memory blocks [Start, Start+Count).
type Region struct {
	Start, Count int
}

// Contains reports whether block b lies inside the region.
func (r Region) Contains(b int) bool { return b >= r.Start && b < r.Start+r.Count }

// End returns the first block index past the region.
func (r Region) End() int { return r.Start + r.Count }

// IsolationError reports a write denied by process isolation.
type IsolationError struct {
	Task  string
	Block int
}

func (e *IsolationError) Error() string {
	return fmt.Sprintf("device: process isolation: task %q may not write block %d", e.Task, e.Block)
}

// EnableProcessIsolation installs an OS-style memory guard: every
// registered task may write only inside its own region; unregistered
// tasks (the attestation ROM, the kernel) are unrestricted. This models
// the process isolation TyTAN and HYDRA rely on (§3.1): "malware that
// is spread over several colluding processes ... would require malware
// to violate process isolation, e.g., by exploiting an OS
// vulnerability" — which experiments model by simply not enabling the
// guard.
func (d *Device) EnableProcessIsolation(regions map[*Task]Region) {
	d.Mem.SetGuard(func(first, last int) error {
		t := d.Running()
		if t == nil {
			return nil
		}
		r, ok := regions[t]
		if !ok {
			return nil
		}
		if !r.Contains(first) || !r.Contains(last) {
			return &IsolationError{Task: t.Name(), Block: first}
		}
		return nil
	})
}
