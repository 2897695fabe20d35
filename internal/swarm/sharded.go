package swarm

import (
	"fmt"
	"math/rand/v2"

	"saferatt/internal/core"
	"saferatt/internal/costmodel"
	"saferatt/internal/device"
	"saferatt/internal/engine"
	"saferatt/internal/mem"
	"saferatt/internal/parallel"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
)

// Sharded drives swarm attestation at fleet scale: thousands of
// devices, partitioned across workers by the deterministic parallel
// engine, collected and judged in one batched pass per round.
//
// Unlike the tree protocol (Node/BuildTree), which models LISA-style
// in-network aggregation with per-hop latency, the sharded engine
// models the verifier's view of a star topology: every device measures
// independently and its reports land at the collector. Each device owns
// a private sim.Kernel, so its virtual-time behavior is a pure function
// of (seed, device index, rounds run) — shard count and scheduling
// order cannot change any report bit, which is what pins Round output
// bit-identical across Shards ∈ {1, 4, 16} and the serial path.
//
// Devices are copy-on-write views of one golden image, so fleet memory
// is O(golden + total dirty blocks) instead of O(devices × image).
type Sharded struct {
	// Collector judges each round.
	Collector *Collector

	cfg  ShardedConfig
	devs []*shardDev
	agg  *Aggregate // reused across rounds
}

// EngineConfig is the shared engine-knob block (Seed, Parallelism,
// NoTrace) embedded in ShardedConfig and SelfFleetConfig; see
// engine.Config.
type EngineConfig = engine.Config

// ShardedConfig sizes a sharded fleet. Seed and Parallelism (worker
// fan-out for Round) live in the embedded EngineConfig; Parallelism
// never changes Round output, only wall-clock time.
type ShardedConfig struct {
	EngineConfig
	// Devices is the fleet size (required, > 0).
	Devices int
	// MemSize / BlockSize set the image geometry (the first block is
	// ROM). Defaults: 64 KiB / 256.
	MemSize   int
	BlockSize int
	// Opts configures the measurement mechanism on every device.
	// Zero value defaults to Preset(NoLock, SHA256).
	Opts core.Options
}

// fleetOpts is the default measurement mechanism of a Sharded fleet's
// devices, and the mechanism of every self-measuring fleet.
var fleetOpts = core.Preset(core.NoLock, suite.SHA256)

// shardedMaxSteps bounds each device kernel's event count per round:
// the watchdog against runaway reschedule loops.
const shardedMaxSteps = 1 << 22

type shardDev struct {
	name    string
	kernel  *sim.Kernel
	mem     *mem.Memory
	dev     *device.Device
	task    *device.Task
	counter uint64
	reports []*core.Report // last round's reports (engine-owned)
	err     error
}

// NewSharded provisions the fleet: one golden image, Devices
// copy-on-write views, one pre-registered collector.
func NewSharded(cfg ShardedConfig) (*Sharded, error) {
	if cfg.Devices <= 0 {
		return nil, fmt.Errorf("swarm: sharded fleet needs Devices > 0")
	}
	if cfg.MemSize == 0 {
		cfg.MemSize = 64 << 10
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 256
	}
	if cfg.Opts.Hash == "" {
		cfg.Opts = fleetOpts
	}
	if err := cfg.Opts.Validate(); err != nil {
		return nil, fmt.Errorf("swarm: sharded opts: %w", err)
	}
	golden := mem.RandomGolden(cfg.MemSize, cfg.BlockSize, 1, rand.New(rand.NewPCG(cfg.Seed, 0x901de)))
	s := &Sharded{
		cfg:       cfg,
		Collector: NewCollector(cfg.Opts.Hash),
		agg:       &Aggregate{Reports: map[string][]*core.Report{}},
	}
	prof := costmodel.ODROIDXU4()
	for i := 0; i < cfg.Devices; i++ {
		k := sim.NewKernel()
		m := mem.NewShared(golden, mem.SharedConfig{Clock: k.Now})
		d := &shardDev{
			name:   fmt.Sprintf("d%05d", i),
			kernel: k,
			mem:    m,
		}
		d.dev = device.New(device.Config{Kernel: k, Mem: m, Profile: prof})
		d.task = d.dev.NewTask("MP:"+d.name, 5)
		s.devs = append(s.devs, d)
		s.Collector.RegisterDevice(d.name, d.dev, cfg.Opts)
	}
	return s, nil
}

// Mem returns device i's memory (for infecting or inspecting it).
func (s *Sharded) Mem(i int) *mem.Memory { return s.devs[i].mem }

// DirtyBlocks sums materialized (device-private) blocks fleet-wide —
// the copy-on-write engine's resident-cost metric.
func (s *Sharded) DirtyBlocks() int {
	total := 0
	for _, d := range s.devs {
		total += d.mem.DirtyBlocks()
	}
	return total
}

// ResidentBytes estimates fleet image memory: the golden image plus
// per-device private blocks.
func (s *Sharded) ResidentBytes() int {
	return s.cfg.MemSize + s.DirtyBlocks()*s.cfg.BlockSize
}

// Round runs one collection round: every device measures with the
// given nonce (sharded across workers), the reports are gathered in
// device-index order, and the collector judges the full aggregate.
// Output is bit-identical for any Shards value. The returned
// SwarmResult and the engine's aggregate are valid until the next
// Round call.
func (s *Sharded) Round(nonce []byte) (*SwarmResult, error) {
	workers := parallel.Resolve(s.cfg.Parallelism)
	parallel.For(workers, len(s.devs), func(i int) {
		d := s.devs[i]
		d.reports, d.err = nil, nil
		d.counter++
		sess, err := core.NewSession(d.dev, d.task, s.cfg.Opts, nonce, d.counter)
		if err != nil {
			d.err = err
			return
		}
		sess.Start(func(reports []*core.Report, err error) {
			d.reports, d.err = reports, err
		})
		if !d.kernel.RunLimited(shardedMaxSteps) {
			d.err = fmt.Errorf("swarm: device %s exceeded %d kernel steps in one round", d.name, shardedMaxSteps)
		}
	})
	clear(s.agg.Reports)
	s.agg.Hops = 0
	s.agg.Duplicates = s.agg.Duplicates[:0]
	var now sim.Time
	for _, d := range s.devs {
		if d.err != nil {
			return nil, d.err
		}
		if d.reports != nil {
			s.agg.Reports[d.name] = d.reports
		}
		// The round "happens" at the latest device-local completion
		// time: a max over all devices, independent of sharding.
		if t := d.kernel.Now(); t > now {
			now = t
		}
	}
	return s.Collector.Judge(s.agg, nonce, now), nil
}
