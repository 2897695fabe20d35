package core

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"hash"

	"saferatt/internal/sim"
)

// labelSeedSchedule labels the PRF behind SeED trigger times.
var labelSeedSchedule = []byte("seed-schedule")

// SeedKey is a SeED seed keyed once: the HMAC state with both pads
// absorbed, so each derivation costs two SHA-256 compressions instead
// of the four a one-shot derivation (AppendPRFOnce) pays. AppendNonce
// is AppendSeedNonce byte for byte.
//
// The state is the owner's alone — never registered in suite's keyed
// pools, so a seed leaves nothing behind when its owner goes — and not
// safe for concurrent use. A prover that measures on a schedule, and a
// verifier that follows one, hold one each; a seed seen once per report
// goes through the one-shot AppendSeedNonce.
type SeedKey struct {
	mac hash.Hash
	ctr [8]byte           // staged counter; a local would escape through mac
	sum [sha256.Size]byte // schedule PRF output
}

// NewSeedKey keys the SeED derivations by seed.
func NewSeedKey(seed []byte) *SeedKey {
	k := &SeedKey{mac: hmac.New(sha256.New, seed)}
	// crypto/hmac saves its padded states on the first Reset; every
	// derivation after it restores them instead of re-absorbing the pads.
	k.mac.Reset()
	return k
}

// prf appends HMAC-SHA256(seed, label || ctr) to dst.
func (k *SeedKey) prf(dst, label []byte, ctr uint64) []byte {
	k.mac.Reset()
	binary.BigEndian.PutUint64(k.ctr[:], ctr)
	k.mac.Write(label)
	k.mac.Write(k.ctr[:])
	return k.mac.Sum(dst)
}

// ScheduleDelay returns the delay between SeED trigger i-1 and trigger
// i (§3.3): base + (PRF(seed, i) mod jitter) — a pure function of
// (seed, i) so the verifier can reconstruct the whole schedule, and
// unpredictable to malware that does not hold the seed.
func (k *SeedKey) ScheduleDelay(i uint64, base, jitter sim.Duration) sim.Duration {
	if jitter <= 0 {
		return base
	}
	r := k.prf(k.sum[:0], labelSeedSchedule, i)
	return base + sim.Duration(binary.BigEndian.Uint64(r[:8])%uint64(jitter))
}

// AppendNonce is AppendSeedNonce under k's seed.
func (k *SeedKey) AppendNonce(dst []byte, ctr uint64) []byte {
	return k.prf(dst, labelSeedNonce, ctr)
}
