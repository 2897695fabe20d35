package core

import (
	"fmt"

	"saferatt/internal/device"
	"saferatt/internal/inccache"
	"saferatt/internal/mem"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
	"saferatt/internal/trace"
)

// Measurement executes one round of the measurement process MP on a
// device: it traverses memory block by block as scheduler steps
// (preemptible between blocks unless atomic), feeds real bytes through
// real cryptography, applies the configured lock policy, and produces a
// Report.
//
// Timing is charged from the device's cost-model profile; content is
// hashed for real, so detection outcomes in experiments are decided by
// cryptography, not by flags.
type Measurement struct {
	dev   *device.Device
	task  *device.Task
	opts  Options
	nonce []byte
	round int
	// Counter is stamped into the report (replay protection for the
	// self-measurement schemes).
	Counter uint64
	// Hooks observe the measurement (adversary models, experiments).
	Hooks Hooks

	// scm is built once from the options and device key; schemeErr,
	// when set, fails every Start asynchronously.
	scm       suite.Scheme
	schemeErr error
	tagger    suite.Tagger
	cache     *inccache.MemCache // non-nil on the incremental path
	order     []int
	pos       int
	cov       *mem.Coverage
	dataSet   map[int]bool
	dataCopy  map[int][]byte
	ts        sim.Time
	extHeld   bool
	started   bool
	done      func(*Report, error)
	report    *Report
	// beginFn/stepFn/finishFn are the setup, per-block and finalization
	// callbacks, bound once when the measurement is built instead of
	// allocating a method value per submitted step — and, since a
	// Session reuses its one measurement, once per session.
	beginFn, stepFn, finishFn func()
	// hdr is the measurement- and block-header encode scratch; a
	// function-local array would escape through the tagger's io.Writer
	// and allocate per header.
	hdr [8]byte
}

// NewMeasurement prepares a measurement round on dev, running as task.
// The task is typically dedicated to MP; its priority is the caller's
// choice (HYDRA gives it the highest, TrustLite-style designs a lower
// one).
func NewMeasurement(dev *device.Device, task *device.Task, opts Options, nonce []byte, round int) (*Measurement, error) {
	m := new(Measurement)
	if err := m.init(dev, task, opts); err != nil {
		return nil, err
	}
	m.reset(append([]byte(nil), nonce...), round)
	return m, nil
}

// init binds the measurement to its device, task and options: what
// every round on them shares. Each round then starts from reset.
func (m *Measurement) init(dev *device.Device, task *device.Task, opts Options) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	if task == nil {
		return fmt.Errorf("core: nil task")
	}
	if err := opts.Data.validate(dev.Mem.NumBlocks(), dev.Mem.ROMBlocks()); err != nil {
		return err
	}
	if opts.Region.Count > 0 && opts.Region.End() > dev.Mem.NumBlocks() {
		return fmt.Errorf("core: region %+v exceeds memory (%d blocks)", opts.Region, dev.Mem.NumBlocks())
	}
	m.dev, m.task, m.opts = dev, task, opts
	m.dataSet = opts.Data.set()
	m.scm, m.schemeErr = m.scheme()
	if m.schemeErr == nil {
		m.schemeErr = m.scm.Validate()
	}
	m.beginFn, m.stepFn, m.finishFn = m.begin, m.step, m.finish
	return nil
}

// reset readies the measurement for one round under nonce, which the
// round's report aliases: the caller must not modify it afterwards.
// Nothing a previous round handed out — its report, coverage, tag or
// data copies — is touched; the next round allocates its own.
func (m *Measurement) reset(nonce []byte, round int) {
	m.nonce, m.round = nonce, round
	m.started, m.pos = false, 0
	m.cache, m.dataCopy, m.report = nil, nil, nil
}

// Start begins the measurement; done fires exactly once, at t_e, with
// the report or an error.
func (m *Measurement) Start(done func(*Report, error)) {
	if m.started {
		panic("core: measurement started twice")
	}
	m.started = true
	m.done = done

	if m.schemeErr != nil {
		m.finishErr(m.schemeErr)
		return
	}
	// The tagger's hash state is pooled: a Monte Carlo sweep reuses a
	// handful of states instead of allocating one per round.
	var err error
	m.tagger, err = m.scm.AcquireTagger()
	if err != nil {
		m.finishErr(err)
		return
	}
	if m.opts.Incremental() {
		// The device-level cache persists across rounds and sessions,
		// so unwritten blocks are hashed once per trial, not once per
		// traversal. Simulated durations below are unaffected: the
		// model still charges full block-hashing time.
		m.cache = m.dev.DigestCache(inccache.DigestHash(m.opts.Hash))
	}

	prof := m.dev.Profile
	setup := prof.HashFixed[m.opts.Hash]
	if m.opts.Lock == LockAllPolicy || m.opts.Lock == LockDec {
		setup += sim.Duration(m.dev.Mem.NumBlocks()) * prof.LockOp
	}
	if m.opts.Data.Policy == DataZeroed {
		setup += prof.CopyTime(len(m.opts.Data.Blocks) * m.dev.Mem.BlockSize())
	}
	m.task.Submit(setup, m.beginFn)
}

// scheme builds the tagging scheme from the options and device key.
func (m *Measurement) scheme() (suite.Scheme, error) {
	if m.opts.Signer != "" {
		sg, err := suite.NewSigner(m.opts.Signer)
		if err != nil {
			return suite.Scheme{}, err
		}
		return suite.Scheme{Hash: m.opts.Hash, Signer: sg}, nil
	}
	return suite.Scheme{Hash: m.opts.Hash, Key: m.dev.AttestationKey}, nil
}

// begin runs at t_s: locks per policy, derives the traversal order,
// and submits the first block step.
func (m *Measurement) begin() {
	if m.opts.Atomic {
		m.dev.DisableInterrupts(m.task)
	}
	memory := m.dev.Mem
	if m.opts.Data.Policy == DataZeroed {
		// Wipe D before measuring (§2.3): nothing — malware included —
		// survives in a zeroed region. MP performs the writes, so they
		// precede any locking below. The zero block is a shared
		// process-wide buffer (WriteBlock copies), never written after
		// creation, so measurements need not allocate it per round.
		zero := zeroBlock(memory.BlockSize())
		for _, b := range m.opts.Data.Blocks {
			if err := memory.WriteBlock(b, zero); err != nil {
				// Data blocks are validated non-ROM and nothing is
				// locked yet, so this cannot fail; surface loudly if
				// the model changes.
				panic("core: zeroing data block: " + err.Error())
			}
		}
	}
	if m.opts.Lock == LockAllPolicy || m.opts.Lock == LockDec {
		memory.LockAll()
		if m.dev.Trace != nil {
			m.dev.Trace.Addf(m.now(), trace.KindBlockLocked, m.task.Name(), "all %d blocks", memory.NumBlocks())
		}
	}

	m.ts = m.now()
	start, count := 0, memory.NumBlocks()
	if m.opts.Region.Count > 0 {
		start, count = m.opts.Region.Start, m.opts.Region.Count
	}
	if m.opts.Shuffled {
		m.order = DeriveOrderRegion(m.dev.AttestationKey, m.nonce, m.round, start, count, true)
	} else {
		// Sequential traversal: alias the process-shared identity order
		// instead of building one per session (a fleet round creates one
		// session per device).
		m.order = identityOrder(start, count)
	}
	m.cov = mem.NewCoverage(memory.NumBlocks())
	writeMeasurementHeader(m.tagger, &m.hdr, m.nonce, m.round)
	if m.dev.Trace != nil { // guarded: the variadic boxing allocates
		m.dev.Trace.Addf(m.ts, trace.KindMeasureStart, m.task.Name(), "%s round %d (t_s)", m.opts.Mechanism, m.round)
	}

	if m.Hooks.OnStart != nil {
		m.Hooks.OnStart(m.progress())
	}
	m.submitNext()
}

func (m *Measurement) now() sim.Time { return m.dev.Kernel.Now() }

func (m *Measurement) progress() Progress {
	var known []int
	if !m.opts.Shuffled {
		known = m.order
	}
	return Progress{
		Count:      m.pos,
		Total:      len(m.order),
		Round:      m.round,
		KnownOrder: known,
		Now:        m.now(),
	}
}

// submitNext queues the step that covers the next block, or the finish
// step when traversal is complete. The charged durations are identical
// for the streaming and incremental paths: the simulated device always
// hashes the full block, only the host-side work is cached.
func (m *Measurement) submitNext() {
	prof := m.dev.Profile
	if m.pos >= len(m.order) {
		finish := prof.StreamTime(m.opts.Hash, 256) // finalization (outer hash / padding)
		if m.opts.Signer != "" {
			finish += prof.SignTime(m.opts.Signer)
		}
		m.task.Submit(finish, m.finishFn)
		return
	}
	dur := prof.StreamTime(m.opts.Hash, m.dev.Mem.BlockSize())
	if m.opts.Lock == LockDec || m.opts.Lock == LockInc {
		dur += prof.LockOp
	}
	m.task.Submit(dur, m.stepFn)
}

// step covers the block at the current traversal position.
func (m *Measurement) step() { m.coverBlock(m.order[m.pos]) }

// coverBlock runs at the coverage instant of block b: hash its current
// content (or fold its cached digest into the tag on the incremental
// path), apply sliding-lock transitions, notify observers, continue.
func (m *Measurement) coverBlock(b int) {
	memory := m.dev.Mem
	m.tagger.Write(putBlockHeader(&m.hdr, m.pos, b))
	if m.cache != nil {
		m.tagger.Write(m.cache.Digest(b))
	} else {
		m.tagger.Write(memory.Block(b))
	}
	m.cov.CoveredAt[b] = m.now()
	if m.opts.Data.Policy == DataReported && m.dataSet[b] {
		if m.dataCopy == nil {
			m.dataCopy = map[int][]byte{}
		}
		m.dataCopy[b] = append([]byte(nil), memory.Block(b)...)
	}
	m.pos++

	tr := m.dev.Trace
	switch m.opts.Lock {
	case LockDec:
		memory.Unlock(b)
		if tr != nil {
			tr.Addf(m.now(), trace.KindBlockUnlocked, m.task.Name(), "block %d", b)
		}
	case LockInc:
		memory.Lock(b)
		if tr != nil {
			tr.Addf(m.now(), trace.KindBlockLocked, m.task.Name(), "block %d", b)
		}
	}
	if tr != nil {
		tr.Addf(m.now(), trace.KindBlockMeasured, m.task.Name(), "pos %d block %d", m.pos-1, b)
	}

	if m.Hooks.OnBlock != nil {
		m.Hooks.OnBlock(m.progress())
	}
	m.submitNext()
}

// finish runs at t_e.
func (m *Measurement) finish() {
	tag, err := m.tagger.Tag()
	m.scm.ReleaseTagger(m.tagger)
	m.tagger = nil
	te := m.now()

	switch {
	case m.opts.ExtRelease:
		// Locks stay held until Release (t_r).
		m.extHeld = true
	case m.opts.Lock == LockAllPolicy || m.opts.Lock == LockInc:
		m.dev.Mem.UnlockAll()
		m.dev.Trace.Add(te, trace.KindBlockUnlocked, m.task.Name(), "all (t_e)")
	}
	if m.opts.Atomic {
		m.dev.EnableInterrupts()
	}
	if m.dev.Trace != nil {
		m.dev.Trace.Addf(te, trace.KindMeasureEnd, m.task.Name(), "%s round %d (t_e)", m.opts.Mechanism, m.round)
	}

	m.report = &Report{
		Mechanism:   m.opts.Mechanism,
		Scheme:      m.scm.Name(),
		Nonce:       m.nonce,
		Round:       m.round,
		Counter:     m.Counter,
		Tag:         tag,
		TS:          m.ts,
		TE:          te,
		Data:        m.dataCopy,
		RegionStart: m.opts.Region.Start,
		RegionCount: m.opts.Region.Count,
		Incremental: m.cache != nil,
		Coverage:    m.cov,
		Order:       m.order,
		BlockSize:   m.dev.Mem.BlockSize(),
		NumBlocks:   m.dev.Mem.NumBlocks(),
	}
	if m.Hooks.OnFinish != nil {
		m.Hooks.OnFinish(m.report)
	}
	m.done(m.report, err)
}

func (m *Measurement) finishErr(err error) {
	// Report construction failed before any step ran; still deliver
	// asynchronously for a uniform caller contract.
	m.dev.Kernel.Schedule(0, func() { m.done(nil, err) })
}

// Release releases extended locks (t_r). It is a no-op unless the
// measurement used ExtRelease and has finished. Returns the release
// time (zero if nothing was held).
func (m *Measurement) Release() sim.Time {
	if !m.extHeld {
		return 0
	}
	m.extHeld = false
	m.dev.Mem.UnlockAll()
	tr := m.now()
	if m.report != nil {
		m.report.ReleasedAt = tr
	}
	m.dev.Trace.Addf(tr, trace.KindLockRelease, m.task.Name(), "t_r")
	return tr
}
