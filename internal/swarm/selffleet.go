package swarm

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"saferatt/internal/core"
	"saferatt/internal/costmodel"
	"saferatt/internal/device"
	"saferatt/internal/mem"
	"saferatt/internal/parallel"
	"saferatt/internal/sim"
	"saferatt/internal/verifier"
)

// SelfFleet runs long-horizon self-measurement at fleet scale (E12):
// thousands of ERASMUS- or SeED-scheduled devices measuring themselves
// over days of virtual time, with a verifier collecting and checking
// each device's report history every T_C. It is the workload the timing
// wheel exists for — unlike Sharded (one kernel per device, a handful
// of pending events each), SelfFleet multiplexes every device of a
// shard onto ONE kernel, so a 10k-device fleet keeps thousands of
// timers pending at once and the heap's O(log n) churn is on the hot
// path of every event.
//
// Determinism mirrors Sharded's contract: every per-device quantity —
// trigger phases, schedules, infection windows, report bits, detection
// latencies — derives from (Seed, device index) alone. Devices on a
// shared kernel never interact, so neither the shard count nor the
// structure the kernel's queue is on can change any reported bit; only
// host cost moves.
// RunSelfFleet merges per-device outcomes in device-index order.
//
// Seed (golden image + every per-device PRF stream) and Parallelism
// (shard fan-out) live in the embedded EngineConfig.
type SelfFleetConfig struct {
	EngineConfig
	// Devices is the fleet size (required, > 0).
	Devices int
	// Mode selects the self-measurement scheduler (§3.3): SelfErasmus
	// measures every TM; SelfSeED at pseudorandom gaps TM + PRF mod TM/2
	// on a per-device secret schedule.
	Mode SelfMode
	// TM is the measurement period (ERASMUS) or schedule base (SeED).
	// Default 5 min.
	TM sim.Duration
	// TC is the verifier's collection period. Default 30 min. (TM, TC)
	// is the Quality-of-Attestation operating point.
	TC sim.Duration
	// Horizon is the virtual-time length of the run. Default 12 h.
	Horizon sim.Duration
	// InfectRate is the fraction of devices hit by one transient
	// infection during the run (uniform PRF-derived start). Default 0.
	InfectRate float64
	// Dwell is how long each infection persists before erasing itself.
	// Default TM/2 (detectable with probability ≈ Dwell/TM).
	Dwell sim.Duration
}

const (
	// The image is 2 KiB in 512-byte blocks, the first one ROM: a small
	// image keeps a sweep's host cost in the scheduler, which is what
	// E12 measures.
	selfMemSize, selfBlockSize = 2 << 10, 512
	// selfMaxSteps bounds each shard kernel's event count: the watchdog
	// against runaway reschedule loops.
	selfMaxSteps = 1 << 36
)

// SelfMode names a self-measurement scheduler.
type SelfMode uint8

const (
	// SelfErasmus measures every TM (uniform PRF-derived phase per
	// device), like prover.ErasmusProver.
	SelfErasmus SelfMode = iota
	// SelfSeED measures at pseudorandom instants derived from a
	// per-device secret seed, like prover.SeEDProver: each gap is
	// TM + (PRF mod TM/2), and the next trigger is armed when the
	// previous measurement completes.
	SelfSeED
)

func (m SelfMode) String() string {
	if m == SelfSeED {
		return "SeED"
	}
	return "ERASMUS"
}

// SelfFleetResult aggregates one fleet run. All fields except
// TagsComputed are invariant under shard count and kernel backend;
// TagsComputed depends on cache locality (one expected-tag cache per
// shard) and is reported as a host-cost statistic only.
type SelfFleetResult struct {
	Devices int
	Mode    SelfMode

	// Measurements counts completed self-measurement sessions;
	// SkippedTicks counts ERASMUS ticks dropped because the previous
	// measurement still ran (always 0 at sane TM).
	Measurements uint64
	SkippedTicks uint64
	// Collections / Reports / BadReports count verifier activity:
	// collection visits, reports checked, tag mismatches.
	Collections uint64
	Reports     uint64
	BadReports  uint64
	// TagsComputed is the number of expected tags recomputed (cache
	// misses). ERASMUS fleets share nonces fleet-wide, so this stays
	// near Horizon/TM; SeED schedules are per-device secrets, so every
	// report costs one recompute.
	TagsComputed uint64

	// Infections / Detected / Missed describe the transient-malware
	// ground truth; Latencies holds, per detected infection in
	// device-index order, the delay from infection end to the verifier
	// learning of it (the Fig. 5 quantity ≈ TM/2 + TC/2).
	Infections int
	Detected   int
	Missed     int
	Latencies  []sim.Duration

	// Events is the total number of kernel events dispatched across all
	// shards — the scheduler-throughput denominator. Shard-invariant.
	Events uint64
	// FinalTime is the virtual instant of the last dispatched event.
	FinalTime sim.Time
}

type selfInfection struct {
	start, end sim.Time
	detected   bool
	latency    sim.Duration
}

type selfDev struct {
	index   int
	dev     *device.Device
	mem     *mem.Memory
	task    *device.Task
	seed    []byte // SeED per-device schedule secret
	counter uint64
	running bool
	armNext func() // SeED: arm the next trigger after completion
	pending []*core.Report
	inf     *selfInfection
	err     error
}

// selfShard is one worker's slice of the fleet: a private kernel
// multiplexing the shard's devices, plus the verifier's expected-tag
// cache over the golden image — ERASMUS nonces are fleet-wide per
// counter, so one computation serves every device in the shard.
type selfShard struct {
	cfg    *SelfFleetConfig
	prof   *costmodel.Profile // every device's cost model
	kernel *sim.Kernel
	devs   []*selfDev
	key    []byte // the fleet's attestation key
	golden *mem.Golden
	batch  *verifier.Batch

	measurements, skipped     uint64
	collections, reports, bad uint64
}

// RunSelfFleet executes one fleet run to the horizon and returns the
// merged result. It is a one-shot engine: configuration in, aggregate
// out, no state retained.
func RunSelfFleet(cfg SelfFleetConfig) (*SelfFleetResult, error) {
	if cfg.Devices <= 0 {
		return nil, fmt.Errorf("swarm: self fleet needs Devices > 0")
	}
	if cfg.TM <= 0 {
		cfg.TM = 5 * sim.Minute
	}
	if cfg.TC <= 0 {
		cfg.TC = 30 * sim.Minute
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 12 * sim.Hour
	}
	if cfg.Dwell <= 0 {
		cfg.Dwell = cfg.TM / 2
	}

	golden := mem.RandomGolden(selfMemSize, selfBlockSize, 1, rand.New(rand.NewPCG(cfg.Seed, 0xe12)))
	prof := costmodel.ODROIDXU4()
	workers := parallel.Resolve(cfg.Parallelism)
	if workers > cfg.Devices {
		workers = cfg.Devices
	}
	shards := make([]*selfShard, workers)
	parallel.For(workers, workers, func(s int) {
		sh := &selfShard{
			cfg:    &cfg,
			prof:   prof,
			kernel: sim.NewKernel(),
			golden: golden,
			batch:  verifier.NewBatch(fleetOpts.Hash, verifier.ImageOfGolden(golden)),
		}
		// Phases spread one counter's measurements over a TM and a visit
		// reads back a TC of them, so the counters being verified at any
		// instant span TC/TM plus one either side. Every device measures
		// the same image at the same cost, so when TM is too short they
		// all skip the same ticks and the counters stay in step. A miss
		// links one entry in (Batch.publish), whatever TC/TM is.
		sh.batch.KeepEpochs = int(cfg.TC/cfg.TM) + 4
		lo, hi := s*cfg.Devices/workers, (s+1)*cfg.Devices/workers
		for i := lo; i < hi; i++ {
			sh.devs = append(sh.devs, sh.newDevice(i))
		}
		sh.key = sh.devs[0].dev.AttestationKey
		sh.run()
		shards[s] = sh
	})

	res := &SelfFleetResult{Devices: cfg.Devices, Mode: cfg.Mode}
	for _, sh := range shards {
		for _, d := range sh.devs {
			if d.err != nil {
				return nil, fmt.Errorf("swarm: device %d: %w", d.index, d.err)
			}
			if d.inf == nil {
				continue
			}
			res.Infections++
			if d.inf.detected {
				res.Detected++
				res.Latencies = append(res.Latencies, d.inf.latency)
			} else {
				res.Missed++
			}
		}
		res.Measurements += sh.measurements
		res.SkippedTicks += sh.skipped
		res.Collections += sh.collections
		res.Reports += sh.reports
		res.BadReports += sh.bad
		res.TagsComputed += sh.batch.Stats().Computed
		res.Events += sh.kernel.Steps()
		if t := sh.kernel.Now(); t > res.FinalTime {
			res.FinalTime = t
		}
	}
	return res, nil
}

// prf64 derives device d's stream of uniform 64-bit values from the
// fleet seed: value j of device d. Pure function of (seed, d, j), so
// every schedule and infection is shard- and backend-invariant.
func prf64(seed uint64, label string, d, j uint64) uint64 {
	var key [8]byte
	binary.BigEndian.PutUint64(key[:], seed)
	r := core.PRF(key[:], label, d<<16|j)
	return binary.BigEndian.Uint64(r[:8])
}

func (sh *selfShard) newDevice(i int) *selfDev {
	cfg := sh.cfg
	k := sh.kernel
	m := mem.NewShared(sh.golden, mem.SharedConfig{Clock: k.Now})
	d := &selfDev{index: i, mem: m}
	d.dev = device.New(device.Config{Kernel: k, Mem: m, Profile: sh.prof})
	d.task = d.dev.NewTask(fmt.Sprintf("MP:d%05d", i), 5)

	ui := uint64(i)
	switch cfg.Mode {
	case SelfSeED:
		// Per-device schedule secret, as SeED prescribes; the next
		// trigger is armed when the previous measurement completes.
		d.seed = core.PRF(binaryKey(cfg.Seed), "e12-seed", ui)
		t := k.NewTimer(func() { sh.measure(d) })
		t.Arm(core.ScheduleDelay(d.seed, 1, cfg.TM, cfg.TM/2))
		d.armNext = func() { t.Arm(core.ScheduleDelay(d.seed, d.counter+1, cfg.TM, cfg.TM/2)) }
	default:
		// ERASMUS: fixed period, uniform phase so the fleet's
		// measurements spread over the period instead of thundering.
		// The timer re-arms itself whether or not the previous
		// measurement completed; measure() skips overlapping ticks.
		phase := sim.Duration(prf64(cfg.Seed, "e12-mphase", ui, 0) % uint64(cfg.TM))
		var t *sim.Timer
		t = k.NewTimer(func() {
			t.Arm(cfg.TM)
			sh.measure(d)
		})
		t.Arm(phase)
	}

	// Collection visits every TC on a uniform phase grid starting at
	// t=0, so any instant is uniformly TC/2 from the next visit (the
	// Fig. 5 steady state; arming the first visit a full TC out would
	// let early infections wait up to 2·TC).
	cphase := sim.Duration(prf64(cfg.Seed, "e12-cphase", ui, 0) % uint64(cfg.TC))
	var ct *sim.Timer
	ct = k.NewTimer(func() {
		ct.Arm(cfg.TC)
		sh.collect(d)
	})
	ct.Arm(cphase)

	// Transient infection: one PRF-chosen window per selected device.
	if cfg.InfectRate > 0 && prf64(cfg.Seed, "e12-infect", ui, 0)%1_000_000 < uint64(cfg.InfectRate*1e6) {
		lo := cfg.TM
		hi := cfg.Horizon - cfg.Dwell - cfg.TC
		if hi <= lo {
			lo, hi = 0, cfg.Horizon/2
		}
		frac := float64(prf64(cfg.Seed, "e12-infect-at", ui, 1)>>11) / (1 << 53)
		start := sim.Time(0).Add(lo + sim.Duration(frac*float64(hi-lo)))
		nb := sh.golden.NumBlocks()
		blk := 1 + int(prf64(cfg.Seed, "e12-infect-block", ui, 2)%uint64(nb-1)) // block 0 is ROM
		off := blk * selfBlockSize
		orig := sh.golden.Bytes()[off]
		d.inf = &selfInfection{start: start, end: start.Add(cfg.Dwell)}
		k.At(start, func() {
			if err := m.Poke(off, orig^0x5a); err != nil && d.err == nil {
				d.err = err
			}
		})
		k.At(d.inf.end, func() {
			// Self-erasing malware: the block content returns to golden
			// (the materialized COW block harmlessly persists).
			if err := m.Poke(off, orig); err != nil && d.err == nil {
				d.err = err
			}
		})
	}
	return d
}

func binaryKey(seed uint64) []byte {
	var key [8]byte
	binary.BigEndian.PutUint64(key[:], seed)
	return key[:]
}

// measure starts one self-measurement session on d's device.
func (sh *selfShard) measure(d *selfDev) {
	if d.running {
		sh.skipped++
		return
	}
	d.counter++
	var nonce []byte
	if sh.cfg.Mode == SelfSeED {
		nonce = core.AppendSeedNonce(nil, d.seed, d.counter)
	} else {
		nonce = core.AppendErasmusNonce(nil, d.dev.AttestationKey, d.counter)
	}
	s, err := core.NewSession(d.dev, d.task, fleetOpts, nonce, d.counter)
	if err != nil {
		if d.err == nil {
			d.err = err
		}
		return
	}
	d.running = true
	s.Start(func(reports []*core.Report, err error) {
		d.running = false
		if err != nil {
			if d.err == nil {
				d.err = err
			}
			return
		}
		sh.measurements++
		d.pending = append(d.pending, reports...)
		if sh.cfg.Mode == SelfSeED {
			d.armNext()
		}
	})
}

// collect is one verifier visit: every pending report is checked
// against the expected tag for its (nonce, round) over the golden
// image — cached while the nonce is one the fleet shares, computed once
// for a SeED nonce no other report will carry — and tag mismatches are
// attributed to the device's infection.
func (sh *selfShard) collect(d *selfDev) {
	now := sh.kernel.Now()
	sh.collections++
	verify := sh.batch.Verify
	if sh.cfg.Mode == SelfSeED {
		verify = sh.batch.VerifyOnce
	}
	for _, rep := range d.pending {
		sh.reports++
		ok, err := verify(sh.key, rep, fleetOpts.Shuffled)
		if err != nil && d.err == nil {
			d.err = err
		}
		if ok {
			continue
		}
		sh.bad++
		if d.inf != nil && !d.inf.detected && d.inf.start <= rep.TE {
			d.inf.detected = true
			// Latency from infection end to the verifier learning of it
			// (Fig. 5): a collection can also land mid-dwell, in which
			// case the verifier knows "early" and the latency clamps to 0.
			if lat := now.Sub(d.inf.end); lat > 0 {
				d.inf.latency = lat
			}
		}
	}
	d.pending = d.pending[:0]
}

// run dispatches the shard's kernel up to the horizon.
func (sh *selfShard) run() {
	end := sim.Time(0).Add(sh.cfg.Horizon)
	k := sh.kernel
	for {
		t, ok := k.NextTime()
		if !ok || t > end {
			return
		}
		k.Step()
		if k.Steps() > selfMaxSteps {
			for _, d := range sh.devs {
				if d.err == nil {
					d.err = fmt.Errorf("shard exceeded %d kernel steps before the horizon", uint64(selfMaxSteps))
				}
			}
			return
		}
	}
}
