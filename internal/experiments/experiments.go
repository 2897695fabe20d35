// Package experiments regenerates every table and figure of the paper
// as data (see DESIGN.md §4 for the experiment index):
//
//	E1 Figure 1  — on-demand RA timeline
//	E2 Figure 2  — hash & signature timings vs memory size
//	E3 Table 1   — solution feature matrix, measured
//	E4 Figure 4  — temporal-consistency windows per lock policy
//	E5 §2.5      — fire-alarm latency under each mechanism
//	E6 §3.2      — SMARM escape probability, Monte Carlo vs analytic
//	E7 Figure 5  — QoA: transient-malware detection vs T_M and dwell
//	E8 §3.3      — SeED: loss, replay, schedule secrecy
//	E9 §2.1      — software-based RA: redirection vs timing thresholds
//	A1–A5        — ablations (block count, lock granularity, scheduling,
//	               swarm scale, device class)
//
// Each experiment returns structured rows plus a Render* helper that
// prints the same table the CLI and benchmarks report.
package experiments

import (
	"math/rand/v2"

	"saferatt/internal/channel"
	"saferatt/internal/core"
	"saferatt/internal/costmodel"
	"saferatt/internal/device"
	"saferatt/internal/mem"
	"saferatt/internal/parallel"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
	"saferatt/internal/trace"
	"saferatt/internal/transport"
	"saferatt/internal/verifier"
)

// World is a fully wired single-prover universe: device, link,
// verifier, golden image. Protocol endpoints attach to Tr; Link is the
// medium under it, kept for its loss/jitter/adversary knobs and Stats.
type World struct {
	K    *sim.Kernel
	Mem  *mem.Memory
	Dev  *device.Device
	Link *channel.Link
	Tr   *transport.Sim
	Ver  *verifier.Verifier
	// Ref is the golden image the world was provisioned from. It aliases
	// the golden's read-only bytes, shared with Mem's clean blocks and
	// the verifier: copy it before changing anything.
	Ref []byte
	Log *trace.Log // nil when built with NoTrace
}

// EngineConfig holds a World's run-wide knobs: the seed that picks the
// run, and whether it keeps an event log.
type EngineConfig struct {
	// Seed derives every pseudorandom stream of the run: golden image
	// content, link jitter/loss draws, per-device PRF schedules.
	Seed uint64
	// NoTrace drops the event log (World.Log is nil). Monte Carlo hot
	// loops set it: formatting trace details otherwise dominates the
	// allocation profile.
	NoTrace bool
}

// WorldConfig parameterizes NewWorld.
type WorldConfig struct {
	EngineConfig
	MemSize   int // default 4096
	BlockSize int // default 256
	ROMBlocks int // leading ROM blocks; 0 means no ROM
	Opts      core.Options
	Latency   sim.Duration
	Loss      float64
	Adv       channel.Adversary
	Profile   *costmodel.Profile // default ODROIDXU4
	// LogWrites records every memory write in the write log. Timeline
	// experiments (Fig. 1/4, consistency windows) need it; Monte Carlo
	// sweeps run thousands of trials and leave it off.
	LogWrites bool
}

// must unwraps a constructor's result. Experiment configurations are
// code, not user input, so a wiring error panics.
func must[T any](v T, err error) T {
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return v
}

// odroid is the profile of every world that names none. Worlds only
// read it, so one serves them all — concurrent trials included.
var odroid = costmodel.ODROIDXU4()

// NewWorld builds a World. It panics on wiring errors.
//
// A world is provisioned as a fleet device is: its image is a random
// golden, the device's memory is copy-on-write over it, and the
// verifier checks against the same golden — so device and verifier
// share one digest per golden block, and a block malware restores is
// served that digest again instead of being re-hashed (DESIGN §6).
func NewWorld(cfg WorldConfig) *World {
	if cfg.MemSize == 0 {
		cfg.MemSize = 4096
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 256
	}
	if cfg.Profile == nil {
		cfg.Profile = odroid
	}
	k := sim.NewKernel()
	golden := mem.RandomGolden(cfg.MemSize, cfg.BlockSize, cfg.ROMBlocks, rand.New(rand.NewPCG(cfg.Seed, 0xfade)))
	m := mem.NewShared(golden, mem.SharedConfig{Clock: k.Now, LogWrites: cfg.LogWrites})
	var log *trace.Log
	if !cfg.NoTrace {
		log = &trace.Log{}
	}
	dev := device.New(device.Config{Kernel: k, Mem: m, Profile: cfg.Profile, Trace: log})
	link := channel.New(channel.Config{
		Kernel: k, Latency: cfg.Latency, Loss: cfg.Loss,
		Adv: cfg.Adv, Trace: log, Seed: cfg.Seed + 1,
	})
	tr := transport.NewSim(link)
	v, err := verifier.New(verifier.Config{
		Kernel: k, Transport: tr,
		Scheme:  suite.Scheme{Hash: cfg.Opts.Hash, Key: dev.AttestationKey},
		PermKey: dev.AttestationKey,
		Image:   verifier.ImageOfGolden(golden),
		Opts:    cfg.Opts,
		Trace:   log,
	})
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return &World{K: k, Mem: m, Dev: dev, Link: link, Tr: tr, Ver: v, Ref: golden.Bytes(), Log: log}
}

// VerifyLocally recomputes the expected tag for a report against the
// world's golden image without going through the link — the
// ground-truth detection check used by Monte Carlo experiments, and
// the innermost hot path of every trial loop. Safe to call from
// concurrent trials (each World is private to its trial).
func (w *World) VerifyLocally(rep *core.Report, shuffled bool) bool {
	key := w.Dev.AttestationKey
	ok, err := w.Ver.Image.VerifyTag(suite.Scheme{Hash: suite.SHA256, Key: key}, key, core.Options{Shuffled: shuffled}, rep)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return ok
}

// newSession creates the measurement task "mp" and one session on it.
// start begins the session — call it now or hand it to K.At — and done
// (may be nil) receives the reports when the last round completes; a
// failed session panics. The caller runs the kernel and decides when to
// Release.
func (w *World) newSession(opts core.Options, nonce []byte, prio int, hooks core.Hooks, done func([]*core.Report)) (s *core.Session, start func()) {
	s = must(core.NewSession(w.Dev, w.Dev.NewTask("mp", prio), opts, nonce, 1))
	s.Hooks = hooks
	return s, func() {
		s.Start(func(reports []*core.Report, err error) {
			if err != nil {
				panic("experiments: session: " + err.Error())
			}
			if done != nil {
				done(reports)
			}
		})
	}
}

// RunSessionToEnd executes one measurement session synchronously in
// virtual time and returns its reports.
func (w *World) RunSessionToEnd(opts core.Options, nonce []byte, prio int, hooks core.Hooks) []*core.Report {
	var out []*core.Report
	_, start := w.newSession(opts, nonce, prio, hooks, func(reports []*core.Report) { out = reports })
	start()
	w.K.Run()
	return out
}

// escapes is the Monte Carlo escape trial every adversary experiment
// shares: a private world of blocks × blockSize bytes per trial, the
// adversary plant installs, one attestation session, every round
// verified locally. It counts the trials whose rounds all verified
// clean — the adversary escaped. A trial's world depends only on
// seed(i), so trials shard across workers with bit-identical results.
func escapes(workers, trials, blocks, blockSize int, opts core.Options, mpPriority int,
	seed func(i int) uint64, nonce func(i int) []byte, plant func(w *World, seed uint64) core.Hooks) int {
	return parallel.Sum(workers, trials, func(i int) int {
		s := seed(i)
		w := NewWorld(WorldConfig{EngineConfig: EngineConfig{Seed: s, NoTrace: true},
			MemSize: blocks * blockSize, BlockSize: blockSize, ROMBlocks: 1, Opts: opts})
		hooks := plant(w, s)
		for _, rep := range w.RunSessionToEnd(opts, nonce(i), mpPriority, hooks) {
			if !w.VerifyLocally(rep, opts.Shuffled) {
				return 0
			}
		}
		return 1
	})
}
