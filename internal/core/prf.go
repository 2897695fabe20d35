package core

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"saferatt/internal/suite"
)

// AppendPRF appends PRF(key, label, counter) — HMAC-SHA256(key,
// label || counter), identical bytes to PRF — to dst and returns the
// extended slice. The MAC state comes from the (algorithm, key) pool,
// so a caller that reuses dst across calls derives nonces with zero
// allocations: the shape the verifier daemon's ingest hot path needs,
// where every ERASMUS report costs one nonce derivation before its
// tag is even looked at.
//
// The keyed pool is registered for the life of the process, so key
// must be one a whole fleet shares (the attestation key, a fleet
// seed). A key that is itself one prover's PRF output — a SeED
// schedule seed — goes through AppendPRFOnce.
//
// label is []byte rather than string so call sites can hold the label
// as a package-level byte slice and avoid the string→[]byte
// conversion allocating on every Write.
func AppendPRF(dst []byte, key []byte, label []byte, counter uint64) []byte {
	if len(key) == 0 {
		// The suite pool rejects empty MAC keys; HMAC itself defines
		// them (zero-padded), and un-keyed callers rely on that.
		return AppendPRFOnce(dst, key, label, counter)
	}
	mac, err := suite.AcquireMAC(suite.SHA256, key)
	if err != nil {
		// SHA-256 is always registered; this is unreachable, and PRF's
		// signature (no error) is the contract callers rely on.
		panic(err)
	}
	s := prfScratchPool.Get().(*prfScratch)
	binary.BigEndian.PutUint64(s.ctr[:], counter)
	mac.Write(label)
	mac.Write(s.ctr[:])
	prfScratchPool.Put(s)
	dst = mac.Sum(dst)
	suite.ReleaseMAC(suite.SHA256, key, mac)
	return dst
}

// AppendPRFOnce is AppendPRF, byte for byte, for a key the process may
// never see again: a per-prover seed, which anyone who can put a
// well-formed frame on the wire can mint by inventing a name. It runs
// HMAC by hand over one pooled unkeyed SHA-256 state and so leaves
// nothing behind that is keyed by the seed — four compressions where a
// pooled keyed state pays two, and no allocation.
func AppendPRFOnce(dst []byte, key []byte, label []byte, counter uint64) []byte {
	h, err := suite.AcquireHash(suite.SHA256)
	if err != nil {
		panic(err) // SHA-256 is always registered
	}
	s := prfScratchPool.Get().(*prfScratch)
	binary.BigEndian.PutUint64(s.ctr[:], counter)
	if len(key) > len(s.pad) { // HMAC keys longer than a block are hashed first
		h.Write(key)
		key = h.Sum(s.sum[:0])
		h.Reset()
	}
	s.pad = [sha256.BlockSize]byte{}
	copy(s.pad[:], key)
	for i := range s.pad {
		s.pad[i] ^= 0x36
	}
	h.Write(s.pad[:])
	h.Write(label)
	h.Write(s.ctr[:])
	inner := h.Sum(s.sum[:0])
	h.Reset()
	for i := range s.pad {
		s.pad[i] ^= 0x36 ^ 0x5c
	}
	h.Write(s.pad[:])
	h.Write(inner)
	dst = h.Sum(dst)
	prfScratchPool.Put(s)
	suite.ReleaseHash(suite.SHA256, h)
	return dst
}

// The labels of the two self-derived nonces (§3.3), held as byte slices
// so a derivation converts nothing. Prover and verifier of both stacks
// derive through the two functions below and nowhere else.
var (
	labelErasmusNonce = []byte("erasmus-nonce")
	labelSeedNonce    = []byte("seed-nonce")
)

// AppendErasmusNonce appends the nonce an ERASMUS self-measurement must
// carry: binding it to the counter stops a compromised prover from
// re-labeling one old honest measurement as many. key is the fleet's
// attestation key.
func AppendErasmusNonce(dst, key []byte, ctr uint64) []byte {
	return AppendPRF(dst, key, labelErasmusNonce, ctr)
}

// AppendSeedNonce is AppendErasmusNonce for SeED, keyed by the prover's
// schedule seed: one prover's key, so derived without a keyed pool.
func AppendSeedNonce(dst, seed []byte, ctr uint64) []byte {
	return AppendPRFOnce(dst, seed, labelSeedNonce, ctr)
}

// prfScratch pools what a derivation stages before writing it through
// a hash.Hash interface, where a stack buffer would escape and cost one
// heap allocation per call: the counter, and for the hand-run HMAC its
// key pad and inner digest.
type prfScratch struct {
	ctr [8]byte
	pad [sha256.BlockSize]byte
	sum [sha256.Size]byte
}

var prfScratchPool = sync.Pool{New: func() any { return new(prfScratch) }}
