// Package safety models the paper's motivating safety-critical
// workload (§2.5): a bare-metal sensor-actuator fire-alarm application
// that "periodically (say, every second) checks the value of its
// temperature sensor and triggers an alarm whenever that value exceeds
// a certain threshold".
//
// The application runs as a high-priority task on the simulated device.
// Experiments start fires at chosen instants and measure how long the
// alarm takes to sound while an attestation mechanism holds or shares
// the CPU — the paper's central conflict, quantified.
package safety

import (
	"saferatt/internal/device"
	"saferatt/internal/mem"
	"saferatt/internal/sim"
	"saferatt/internal/trace"
)

// FireAlarm is the sensor-actuator application.
type FireAlarm struct {
	dev  *device.Device
	task *device.Task

	// SensorPeriod is how often the temperature is sampled (paper:
	// every second).
	SensorPeriod sim.Duration
	// CheckDur is the CPU time of one sample-compare-actuate pass.
	CheckDur sim.Duration
	// Deadline is the maximum acceptable fire-to-alarm latency.
	Deadline sim.Duration
	// DataBlock, when >= 0, is a memory block the application writes
	// its latest reading into each pass — the probe for the paper's
	// "writable memory availability" property. Denied writes are
	// counted, the pass otherwise proceeds (the reading is held in a
	// register).
	DataBlock int

	ticker *sim.Ticker

	fireAt  sim.Time // time of the current unacknowledged fire, or -1
	reading byte

	// Results.
	Checks      int
	Alarms      []Alarm
	WriteFaults int
}

// Alarm records one detected fire.
type Alarm struct {
	FireAt  sim.Time
	AlarmAt sim.Time
}

// Latency returns the fire-to-alarm delay.
func (a Alarm) Latency() sim.Duration { return a.AlarmAt.Sub(a.FireAt) }

// Config for NewFireAlarm.
type Config struct {
	Priority     int
	SensorPeriod sim.Duration // default 1s
	CheckDur     sim.Duration // default 200µs
	Deadline     sim.Duration // default 1s
	DataBlock    int          // -1 to disable the availability probe
}

// NewFireAlarm creates the application task on dev.
func NewFireAlarm(dev *device.Device, cfg Config) *FireAlarm {
	if cfg.SensorPeriod <= 0 {
		cfg.SensorPeriod = sim.Second
	}
	if cfg.CheckDur <= 0 {
		cfg.CheckDur = 200 * sim.Microsecond
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = sim.Second
	}
	f := &FireAlarm{
		dev:          dev,
		task:         dev.NewTask("firealarm", cfg.Priority),
		SensorPeriod: cfg.SensorPeriod,
		CheckDur:     cfg.CheckDur,
		Deadline:     cfg.Deadline,
		DataBlock:    cfg.DataBlock,
		fireAt:       -1,
	}
	return f
}

// Task exposes the application task (for stats and priority checks).
func (f *FireAlarm) Task() *device.Task { return f.task }

// Start begins periodic sensing.
func (f *FireAlarm) Start() {
	f.ticker = f.dev.Kernel.NewTicker(f.SensorPeriod, func(sim.Time) {
		f.task.Submit(f.CheckDur, f.check)
	})
}

// Stop halts sensing.
func (f *FireAlarm) Stop() {
	if f.ticker != nil {
		f.ticker.Stop()
	}
}

// StartFire schedules a physical fire event at time at. The alarm
// sounds at the completion of the first sensor pass that *runs* after
// the fire began — if the CPU is hogged by an atomic measurement, that
// pass (and the alarm) is delayed.
func (f *FireAlarm) StartFire(at sim.Time) {
	f.dev.Kernel.At(at, func() {
		if f.fireAt < 0 {
			f.fireAt = f.dev.Kernel.Now()
			f.dev.Trace.Add(f.fireAt, trace.KindInterrupt, "environment", "FIRE breaks out")
		}
	})
}

// check is one sensor pass.
func (f *FireAlarm) check() {
	now := f.dev.Kernel.Now()
	f.Checks++
	f.reading++

	if f.DataBlock >= 0 {
		buf := make([]byte, 8)
		buf[0] = f.reading
		err := f.dev.Mem.Write(f.DataBlock*f.dev.Mem.BlockSize(), buf)
		if _, locked := err.(*mem.LockError); locked {
			f.WriteFaults++
			f.dev.Trace.Add(now, trace.KindWriteFault, f.task.Name(), "sensor log write denied")
		}
	}

	if f.fireAt >= 0 {
		alarm := Alarm{FireAt: f.fireAt, AlarmAt: now}
		f.Alarms = append(f.Alarms, alarm)
		f.dev.Trace.Addf(now, trace.KindInterrupt, f.task.Name(),
			"ALARM sounded, latency %v", alarm.Latency())
		f.fireAt = -1
	}
}

// MissedDeadlines counts alarms that violated the deadline.
func (f *FireAlarm) MissedDeadlines() int {
	n := 0
	for _, a := range f.Alarms {
		if a.Latency() > f.Deadline {
			n++
		}
	}
	return n
}

// WorstLatency returns the maximum fire-to-alarm latency observed.
func (f *FireAlarm) WorstLatency() sim.Duration {
	var worst sim.Duration
	for _, a := range f.Alarms {
		if l := a.Latency(); l > worst {
			worst = l
		}
	}
	return worst
}
