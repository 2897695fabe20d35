package experiments

import (
	"fmt"
	"strings"

	"saferatt/internal/core"
	"saferatt/internal/costmodel"
	"saferatt/internal/parallel"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
)

// A5Row: device-class ablation. The paper studies "simple IoT devices";
// this sweep shows how the atomic-RA safety conflict sharpens as the
// device gets weaker: the largest memory attestable atomically without
// missing a deadline shrinks with device speed.
type A5Row struct {
	Profile string
	// MaxAtomicBytes is the largest attested size (power of two) whose
	// full atomic measurement still fits inside the deadline.
	MaxAtomicBytes int
	// MPAtMax is the measurement duration at that size.
	MPAtMax sim.Duration
	// InterruptibleLatency is the preemption latency of a
	// block-interruptible mechanism on this device (one 4 KiB block).
	InterruptibleLatency sim.Duration
	// SimLatency is a full-simulation cross-check: alarm latency at
	// 1 MiB under SMART on this profile.
	SimLatency sim.Duration
}

// AblationDeviceClass compares the calibrated ODROID-XU4 profile with
// a 40x slower low-end MCU for a given alarm deadline.
func AblationDeviceClass(deadline sim.Duration) []A5Row {
	if deadline <= 0 {
		deadline = sim.Second
	}
	profiles := []*costmodel.Profile{costmodel.ODROIDXU4(), costmodel.LowEndMCU()}
	// One independent simulation per device profile.
	return parallel.Map(0, len(profiles), func(i int) A5Row {
		p := profiles[i]
		row := A5Row{Profile: p.Name}
		// Largest power-of-two size measurable within the deadline.
		for size := 4 << 10; size <= 8<<30; size <<= 1 {
			mp := p.MACTime(suite.SHA256, size)
			if mp > deadline {
				break
			}
			row.MaxAtomicBytes = size
			row.MPAtMax = mp
		}
		row.InterruptibleLatency = p.StreamTime(suite.SHA256, 4096) + p.CtxSwitch
		row.SimLatency = a5Simulate(p)
		return row
	})
}

// a5Simulate runs the fire-alarm collision at 1 MiB on the given
// profile and returns the alarm latency under SMART.
func a5Simulate(p *costmodel.Profile) sim.Duration {
	opts := core.Preset(core.SMART, suite.SHA256)
	w := NewWorld(WorldConfig{EngineConfig: EngineConfig{Seed: 55},
		MemSize: 1 << 20, BlockSize: 16 << 10, ROMBlocks: 1, Opts: opts, Profile: p})
	// The measurement starts 10 ms before the 300 ms sensor pass.
	alarm, _ := fireCollision(w, opts, mpPrio, "a5", 100*sim.Millisecond, 100*sim.Millisecond,
		sim.Time(290*sim.Millisecond), 2*sim.Millisecond)
	return alarm.Latency()
}

// RenderA5 prints the device-class table.
func RenderA5(rows []A5Row, deadline sim.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "A5: device class vs atomic-RA feasibility (deadline %v)\n", deadline)
	fmt.Fprintf(&b, "%-12s %-16s %-14s %-18s %-14s\n",
		"profile", "max atomic mem", "MP at max", "interruptible lat", "1MiB SMART lat")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-16s %-14v %-18v %-14v\n",
			r.Profile, byteSize(r.MaxAtomicBytes), r.MPAtMax, r.InterruptibleLatency, r.SimLatency)
	}
	b.WriteString("weaker devices shrink the atomically-attestable memory; interruptible\n")
	b.WriteString("mechanisms keep latency at one block time on any device class\n")
	return b.String()
}
