// Package core implements the paper's measurement process MP and the
// full landscape of attestation mechanisms it surveys:
//
//   - the SMART-style atomic on-demand baseline (§2.1–2.2),
//   - the memory-locking family — No-Lock, All-Lock, All-Lock-Ext,
//     Dec-Lock, Inc-Lock, Inc-Lock-Ext (§3.1),
//   - SMARM-style shuffled, interruptible measurement (§3.2),
//   - ERASMUS-style scheduled self-measurement and SeED-style
//     non-interactive prover-initiated attestation (§3.3).
//
// All mechanisms share one measurement engine (Measurement) that runs
// as a task on a simulated device, hashing real bytes with real
// cryptography; mechanisms differ only in traversal order, lock policy,
// atomicity, rounds, and how measurements are initiated.
package core

import (
	"fmt"
	"sync/atomic"

	"saferatt/internal/device"
	"saferatt/internal/suite"
)

// MechanismID names an attestation mechanism from the paper.
type MechanismID string

// The mechanisms of Table 1 (plus HYDRA's priority-based exclusion as
// an extra baseline and the Inc-Lock-Ext variant discussed in §3.1.2).
const (
	SMART      MechanismID = "SMART"        // atomic on-demand baseline
	HYDRA      MechanismID = "HYDRA"        // non-atomic, top-priority MP
	NoLock     MechanismID = "No-Lock"      // interruptible strawman
	AllLock    MechanismID = "All-Lock"     // lock everything for [t_s,t_e]
	AllLockExt MechanismID = "All-Lock-Ext" // hold locks until t_r
	DecLock    MechanismID = "Dec-Lock"     // lock all at t_s, release as covered
	IncLock    MechanismID = "Inc-Lock"     // lock as covered, release at t_e
	IncLockExt MechanismID = "Inc-Lock-Ext" // lock as covered, hold until t_r
	SMARM      MechanismID = "SMARM"        // shuffled interruptible
	Erasmus    MechanismID = "ERASMUS"      // scheduled self-measurement
	SeED       MechanismID = "SeED"         // non-interactive prover-initiated
)

// Mechanisms returns the on-demand mechanism identifiers in Table 1
// display order (ERASMUS and SeED are schedulers layered on the same
// engine and have their own types).
func Mechanisms() []MechanismID {
	return []MechanismID{SMART, HYDRA, NoLock, AllLock, AllLockExt, DecLock, IncLock, IncLockExt, SMARM}
}

// LockPolicy selects how the engine locks memory around block coverage
// (§3.1).
type LockPolicy int

// Lock policies.
const (
	// LockNone never locks memory.
	LockNone LockPolicy = iota
	// LockAllPolicy locks the whole memory at t_s and releases it at
	// t_e (or t_r with ExtRelease).
	LockAllPolicy
	// LockDec locks the whole memory at t_s and releases each block as
	// soon as F has covered it; consistent with memory at t_s.
	LockDec
	// LockInc locks each block as F covers it and releases everything
	// at t_e (or t_r with ExtRelease); consistent with memory at t_e.
	LockInc
)

func (p LockPolicy) String() string {
	switch p {
	case LockNone:
		return "none"
	case LockAllPolicy:
		return "all"
	case LockDec:
		return "dec"
	case LockInc:
		return "inc"
	default:
		return fmt.Sprintf("LockPolicy(%d)", int(p))
	}
}

// streamingDefault flips the package default from incremental to
// streaming. Atomic because parallel trial workers read it while a
// test flips it between runs.
var streamingDefault atomic.Bool

// SetStreamingDefault selects the package-wide measurement data path:
// on = streaming, which feeds every attested byte through the keyed
// tag; off (the default) = incremental, which folds cached per-block
// digests into it (see internal/inccache). Both produce identical
// simulated durations and detection outcomes; the incremental path is a
// host-CPU optimization. Only tests call it, to run measurements and
// whole experiments on both paths; no program does.
func SetStreamingDefault(on bool) { streamingDefault.Store(on) }

// Options configure one measurement.
type Options struct {
	// Mechanism labels reports; presets fill the remaining fields.
	Mechanism MechanismID
	// Atomic disables interrupts for the duration of MP (SMART).
	Atomic bool
	// Shuffled traverses blocks in a secret keyed-permutation order
	// (SMARM) instead of sequentially.
	Shuffled bool
	// Lock selects the lock policy.
	Lock LockPolicy
	// ExtRelease holds the final locks past t_e until Release is
	// called (the -Ext variants). Only meaningful with LockAllPolicy
	// or LockInc.
	ExtRelease bool
	// Hash is the measurement hash function.
	Hash suite.HashID
	// Signer, when set, switches from MAC to hash-and-sign mode.
	Signer suite.SignerID
	// Rounds is the number of successive independent measurements
	// (SMARM uses >1 to drive the escape probability down
	// exponentially). 0 means 1.
	Rounds int
	// Data configures the treatment of high-entropy mutable regions
	// (§2.3): included in the hash, zeroed before MP, or reported
	// verbatim alongside the tag.
	Data DataRegion
	// Region, when Count > 0, restricts the measurement to a block
	// range (TyTAN-style per-process attestation). Region measurements
	// are plain interruptible traversals: lock policies and extended
	// release do not apply.
	Region device.Region
}

// Incremental reports whether measurements take the incremental data
// path (see SetStreamingDefault).
func (o Options) Incremental() bool { return !streamingDefault.Load() }

// Validate reports whether the options are coherent.
func (o Options) Validate() error {
	if o.ExtRelease && o.Lock != LockAllPolicy && o.Lock != LockInc {
		return fmt.Errorf("core: ExtRelease requires All-Lock or Inc-Lock, got %v", o.Lock)
	}
	if o.Lock == LockDec && o.ExtRelease {
		return fmt.Errorf("core: extended release is not applicable to Dec-Lock (memory is not locked at t_e)")
	}
	if o.Rounds < 0 {
		return fmt.Errorf("core: negative Rounds %d", o.Rounds)
	}
	if o.Rounds > 1 && !o.Shuffled {
		return fmt.Errorf("core: multi-round measurement requires shuffled traversal")
	}
	if o.Hash == "" {
		return fmt.Errorf("core: Hash is required")
	}
	if o.Region.Count > 0 && (o.Lock != LockNone || o.ExtRelease) {
		return fmt.Errorf("core: per-region measurement supports LockNone without extended release")
	}
	if o.Region.Count < 0 || o.Region.Start < 0 {
		return fmt.Errorf("core: malformed region %+v", o.Region)
	}
	return nil
}

// NumRounds returns the effective round count (at least 1).
func (o Options) NumRounds() int {
	if o.Rounds < 1 {
		return 1
	}
	return o.Rounds
}

// Preset returns the canonical Options for a mechanism, using the given
// hash. SMARM defaults to 1 round; set Rounds explicitly for
// multi-round detection.
func Preset(id MechanismID, hash suite.HashID) Options {
	o := Options{Mechanism: id, Hash: hash}
	switch id {
	case SMART:
		o.Atomic = true
	case HYDRA:
		// Exclusion comes from scheduling priority, configured by the
		// prover, not from the engine.
	case NoLock:
		// Strawman: nothing.
	case AllLock:
		o.Lock = LockAllPolicy
	case AllLockExt:
		o.Lock = LockAllPolicy
		o.ExtRelease = true
	case DecLock:
		o.Lock = LockDec
	case IncLock:
		o.Lock = LockInc
	case IncLockExt:
		o.Lock = LockInc
		o.ExtRelease = true
	case SMARM:
		o.Shuffled = true
	case Erasmus, SeED:
		// Self-measurement schedulers measure interruptibly by
		// default; they wrap presets themselves.
	default:
		panic(fmt.Sprintf("core: unknown mechanism %q", id))
	}
	return o
}
