// Package saferatt is a simulation framework for studying the conflict
// between remote attestation (RA) and safety-critical operation on
// simple IoT devices, reproducing and extending:
//
//	Carpent, Eldefrawy, Rattanavipanon, Sadeghi, Tsudik.
//	"Invited: Reconciling Remote Attestation and Safety-Critical
//	Operation on Simple IoT Devices." DAC 2018.
//
// It provides:
//
//   - a deterministic discrete-event device simulator (virtual clock,
//     priority-preemptive tasks, MPU-lockable block memory, calibrated
//     ODROID-XU4 timing),
//   - a measurement engine with every mechanism the paper surveys:
//     SMART-style atomic RA, the memory-locking family (No/All/Dec/
//     Inc-Lock and -Ext variants), SMARM shuffled measurement, ERASMUS
//     self-measurement, and SeED non-interactive attestation,
//   - executable adversary models (transient and self-relocating
//     malware playing their optimal strategies),
//   - a verifier with nonce freshness, replay protection, collection
//     validation and SeED schedule monitoring,
//   - from-scratch BLAKE2b/BLAKE2s (RFC 7693) plus the SHA-2/RSA/ECDSA
//     measurement suites of the paper's Figure 2, and
//   - the full experiment harness regenerating every figure and table
//     (see EXPERIMENTS.md).
//
// This facade re-exports the high-level entry points; the
// implementation lives in the internal packages (internal/core,
// internal/device, ...). The quickest way in:
//
//	res := saferatt.NewScenario(saferatt.ScenarioConfig{
//	    Mechanism: saferatt.SMART,
//	    MemSize:   1 << 20,
//	}).AttestOnce()
//	fmt.Println(res.OK, res.Duration)
package saferatt

import (
	"saferatt/internal/channel"
	"saferatt/internal/core"
	"saferatt/internal/costmodel"
	"saferatt/internal/device"
	"saferatt/internal/experiments"
	"saferatt/internal/malware"
	"saferatt/internal/mem"
	"saferatt/internal/prover"
	"saferatt/internal/qoa"
	"saferatt/internal/rattd"
	"saferatt/internal/safety"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
	"saferatt/internal/trace"
	"saferatt/internal/transport"
	"saferatt/internal/verifier"
)

// Mechanism identifiers, re-exported from the core engine.
const (
	SMART      = core.SMART
	HYDRA      = core.HYDRA
	NoLock     = core.NoLock
	AllLock    = core.AllLock
	AllLockExt = core.AllLockExt
	DecLock    = core.DecLock
	IncLock    = core.IncLock
	IncLockExt = core.IncLockExt
	SMARM      = core.SMARM
	Erasmus    = core.Erasmus
	SeED       = core.SeED
)

// Re-exported core types. Advanced users can drop to the internal
// packages through these.
type (
	// MechanismID names an attestation mechanism.
	MechanismID = core.MechanismID
	// Options configure a measurement (traversal, locks, atomicity,
	// rounds, crypto).
	Options = core.Options
	// Report is an attestation report.
	Report = core.Report
	// Time and Duration are virtual simulation time.
	Time = sim.Time
	// Duration is a span of virtual time.
	Duration = sim.Duration
	// HashID selects a measurement hash (SHA-256/512, BLAKE2b/2s).
	HashID = suite.HashID
	// SignerID selects a signature scheme (RSA/ECDSA families).
	SignerID = suite.SignerID
)

// Virtual-time helpers.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
)

// Preset returns the canonical Options for a mechanism with the given
// hash (use suite constants via SHA256 etc.).
func Preset(id MechanismID, hash HashID) Options { return core.Preset(id, hash) }

// Hash identifiers of the paper's Figure 2.
const (
	SHA256  = suite.SHA256
	SHA512  = suite.SHA512
	BLAKE2b = suite.BLAKE2b
	BLAKE2s = suite.BLAKE2s
)

// Scenario is a ready-to-run single-prover world: a simulated device
// with a golden memory image, a network link with the transport the
// prover and verifier speak over it, and a verifier.
type Scenario struct {
	Kernel    *sim.Kernel
	Device    *device.Device
	Memory    *mem.Memory
	Link      *channel.Link
	Transport *transport.Sim
	Verifier  *verifier.Verifier
	Trace     *trace.Log
	Opts      Options

	prover *prover.Prover
}

// ScenarioConfig configures NewScenario. Zero values give a 4 KiB
// device attested with SMART over HMAC-SHA-256 on an ideal link.
type ScenarioConfig struct {
	Mechanism MechanismID // default SMART
	Hash      HashID      // default SHA-256
	Rounds    int         // SMARM rounds (default 1)
	MemSize   int         // default 4096
	BlockSize int         // default 256
	Latency   Duration    // network latency
	Loss      float64     // network loss rate
	Seed      uint64      // determinism seed
	MPPrio    int         // measurement task priority (default 5)
}

// NewScenario wires a world.
func NewScenario(cfg ScenarioConfig) *Scenario {
	if cfg.Mechanism == "" {
		cfg.Mechanism = SMART
	}
	if cfg.Hash == "" {
		cfg.Hash = SHA256
	}
	opts := core.Preset(cfg.Mechanism, cfg.Hash)
	if cfg.Rounds > 0 {
		opts.Rounds = cfg.Rounds
	}
	w := experiments.NewWorld(experiments.WorldConfig{
		EngineConfig: experiments.EngineConfig{Seed: cfg.Seed},
		MemSize:      cfg.MemSize, BlockSize: cfg.BlockSize,
		ROMBlocks: 1, Opts: opts, Latency: cfg.Latency, Loss: cfg.Loss,
	})
	prio := cfg.MPPrio
	if prio == 0 {
		prio = 5
	}
	if cfg.Mechanism == HYDRA {
		prio = 1000
	}
	p, err := prover.NewProver("prv", w.Dev, w.Tr, opts, prio)
	if err != nil {
		panic("saferatt: " + err.Error())
	}
	return &Scenario{
		Kernel: w.K, Device: w.Dev, Memory: w.Mem, Link: w.Link, Transport: w.Tr,
		Verifier: w.Ver, Trace: w.Log, Opts: opts, prover: p,
	}
}

// AttestResult summarizes one on-demand attestation.
type AttestResult struct {
	// OK reports whether every round verified against the golden
	// image.
	OK bool
	// Reason holds the verifier's rejection reason when !OK.
	Reason string
	// Duration is t_e - t_s of the final round.
	Duration Duration
	// RoundTrip is challenge-send to verdict in virtual time.
	RoundTrip Duration
}

// AttestOnce runs one complete challenge-measure-report-verify exchange
// in virtual time.
func (s *Scenario) AttestOnce() AttestResult {
	start := s.Kernel.Now()
	before := len(s.Verifier.Results())
	s.Verifier.Challenge("prv")
	s.Kernel.Run()

	res := AttestResult{OK: true}
	results := s.Verifier.Results()[before:]
	if len(results) == 0 {
		return AttestResult{Reason: "no verdict (report lost?)"}
	}
	for _, r := range results {
		if !r.OK {
			res.OK = false
			res.Reason = r.Reason
		}
		if r.Report != nil {
			res.Duration = r.Report.Duration()
		}
	}
	res.RoundTrip = s.Kernel.Now().Sub(start)
	return res
}

// InfectPersistent plants immovable malware in the given block (it
// will be detected by any mechanism); returns an error if the block is
// not writable.
func (s *Scenario) InfectPersistent(block int) error {
	mw := malware.NewTransient(s.Device, 50)
	return mw.Infect(block)
}

// NewSelfRelocating plants optimal roving malware (priority above MP)
// and installs its hooks on the prover.
func (s *Scenario) NewSelfRelocating(block int, seed uint64) (*malware.SelfRelocating, error) {
	mw := malware.NewSelfRelocating(s.Device, 50, seed)
	if err := mw.Infect(block); err != nil {
		return nil, err
	}
	s.prover.Hooks = mw.Hooks()
	return mw, nil
}

// NewTransient plants self-erasing malware and installs its hooks.
func (s *Scenario) NewTransient(block int) (*malware.Transient, error) {
	mw := malware.NewTransient(s.Device, 50)
	mw.EraseOnMeasureStart = true
	if err := mw.Infect(block); err != nil {
		return nil, err
	}
	s.prover.Hooks = mw.Hooks()
	return mw, nil
}

// FireAlarmConfig configures the §2.5 fire-alarm application.
type FireAlarmConfig = safety.Config

// NewFireAlarm attaches the §2.5 safety-critical application to the
// scenario's device at top priority.
func (s *Scenario) NewFireAlarm(cfg safety.Config) *safety.FireAlarm {
	if cfg.Priority == 0 {
		cfg.Priority = 100
	}
	if cfg.DataBlock == 0 {
		cfg.DataBlock = -1
	}
	return safety.NewFireAlarm(s.Device, cfg)
}

// Transport-abstracted attestation: the same typed protocol surface
// runs over the deterministic simulated link and over real UDP
// sockets (see internal/transport), and a networked verifier daemon
// serves it (see internal/rattd and cmd/rattd).
type (
	// Transport moves typed protocol messages between named endpoints;
	// Sim (virtual time) and Net (UDP) satisfy the same conformance
	// suite.
	Transport = transport.Transport
	// Msg is one typed protocol message (challenge, report bundle,
	// verdict, ...).
	Msg = transport.Msg
	// Kind names a protocol message kind (transport.KindChallenge,
	// transport.KindReport, ...).
	Kind = transport.Kind
	// NetConfig tunes the UDP transport (address, retry pacing,
	// injected loss).
	NetConfig = transport.NetConfig
	// DaemonConfig configures Serve (golden image, freshness windows,
	// batch amortization).
	DaemonConfig = rattd.Config
	// Daemon is a running verifier daemon.
	Daemon = rattd.Server
)

// Listen opens a UDP transport serving cfg.Addr (":0" for ephemeral).
func Listen(cfg NetConfig) (*transport.Net, error) { return transport.Listen(cfg) }

// Dial opens a UDP transport whose unrouted sends default to addr.
func Dial(addr string, cfg NetConfig) (*transport.Net, error) { return transport.Dial(addr, cfg) }

// NewSimTransport wraps a simulated link in the Transport interface.
func NewSimTransport(link *channel.Link) *transport.Sim { return transport.NewSim(link) }

// Serve starts a verifier daemon on tr — SMART challenge/response,
// ERASMUS collection ingestion and SeED monitoring with §3.3 replay
// protection. The same daemon code runs over Sim and Net transports.
func Serve(tr Transport, cfg DaemonConfig) (*rattd.Server, error) { return rattd.Serve(tr, cfg) }

// Profile returns the calibrated ODROID-XU4 cost model (the paper's
// evaluation platform).
func Profile() *costmodel.Profile { return costmodel.ODROIDXU4() }

// SMARMEscape returns the analytic escape probability of optimal
// roving malware against k shuffled measurements of n blocks (§3.2).
func SMARMEscape(n, k int) float64 { return qoa.SMARMEscape(n, k) }

// TransientDetectProb returns the analytic probability that a
// transient infection of dwell d is caught by self-measurements with
// period tm (§3.3 / Figure 5).
func TransientDetectProb(d, tm Duration) float64 { return qoa.TransientDetectProb(d, tm) }
