// Package costmodel converts byte counts and crypto operations into
// virtual-time durations for the device simulator.
//
// The paper's Figure 2 reports wall-clock measurement times on an
// ODROID-XU4. That hardware is not available here, so the simulator
// charges time from a calibrated profile instead: per-byte hashing
// rates and fixed signing costs fitted to the paper's published anchor
// points —
//
//	≈ 7 s to hash 1 GB, ≈ 14 s for 2 GB (§2.5, §2.4),
//	≈ 0.01 s at 1 MB, where "the cost of most signature algorithms
//	become comparatively insignificant" (§2.4).
//
// Absolute equality with the authors' testbed is not the goal (see
// DESIGN.md §2); preserving the *shape* — linear hashing, constant
// signing, crossover near 1 MB — is, and the anchors make downstream
// experiments (fire-alarm latency, QoA) operate at realistic scales.
package costmodel

import (
	"fmt"
	"math"

	"saferatt/internal/sim"
	"saferatt/internal/suite"
)

// Profile is a device timing model.
type Profile struct {
	// Name identifies the modeled hardware.
	Name string
	// HashPerByte maps each hash to its streaming throughput cost in
	// nanoseconds per byte.
	HashPerByte map[suite.HashID]float64
	// HashFixed is the per-measurement overhead (init + finalization)
	// of each hash.
	HashFixed map[suite.HashID]sim.Duration
	// SignCost is the fixed per-operation signature cost; it does not
	// depend on input size because only the digest is signed (§2.4).
	SignCost map[suite.SignerID]sim.Duration
	// CtxSwitch is the cost of one preemption (save/restore).
	CtxSwitch sim.Duration
	// LockOp is the cost of one MPU reconfiguration (lock or unlock a
	// block).
	LockOp sim.Duration
	// CopyPerByte is the memcpy cost in nanoseconds per byte (used by
	// relocation adversaries and legitimate writers).
	CopyPerByte float64
}

// CopyTime returns the cost of copying n bytes.
func (p *Profile) CopyTime(n int) sim.Duration {
	return sim.Duration(math.Round(p.CopyPerByte * float64(n)))
}

// ODROIDXU4 returns the profile calibrated to the paper's platform.
//
// SHA-256 is pinned to 7 ns/byte so that 1 GB ≈ 7 s and 2 GB ≈ 14 s as
// reported. The other hash rates preserve the relative ordering typical
// of a 32-bit ARM core without SHA extensions (BLAKE2 fastest — "well
// suited for embedded systems" — SHA-512 slowest because of 64-bit
// arithmetic on a 32-bit ALU).
func ODROIDXU4() *Profile {
	return &Profile{
		Name: "ODROID-XU4",
		HashPerByte: map[suite.HashID]float64{
			suite.SHA256:  7.0,
			suite.SHA512:  10.0,
			suite.BLAKE2b: 4.5,
			suite.BLAKE2s: 5.5,
			suite.AESCMAC: 12.0, // table-based AES without hardware support
		},
		HashFixed: map[suite.HashID]sim.Duration{
			suite.SHA256:  2 * sim.Microsecond,
			suite.SHA512:  3 * sim.Microsecond,
			suite.BLAKE2b: 2 * sim.Microsecond,
			suite.BLAKE2s: 2 * sim.Microsecond,
			suite.AESCMAC: 2 * sim.Microsecond, // key schedule + subkeys
		},
		SignCost: map[suite.SignerID]sim.Duration{
			suite.RSA1024:  1200 * sim.Microsecond,
			suite.RSA2048:  7 * sim.Millisecond,
			suite.RSA4096:  45 * sim.Millisecond,
			suite.ECDSA224: 1 * sim.Millisecond,
			suite.ECDSA256: 1200 * sim.Microsecond,
			suite.ECDSA384: 3500 * sim.Microsecond,
		},
		CtxSwitch:   5 * sim.Microsecond,
		LockOp:      1 * sim.Microsecond,
		CopyPerByte: 0.5,
	}
}

// LowEndMCU returns a profile for a genuinely low-end device (tens of
// MHz, no cache), roughly 40x slower per byte than the ODROID profile.
// Used by ablations to show how the safety-vs-security conflict
// sharpens as devices get smaller.
func LowEndMCU() *Profile {
	p := ODROIDXU4()
	const scale = 40
	q := &Profile{
		Name:        "LowEndMCU",
		HashPerByte: map[suite.HashID]float64{},
		HashFixed:   map[suite.HashID]sim.Duration{},
		SignCost:    map[suite.SignerID]sim.Duration{},
		CtxSwitch:   p.CtxSwitch * scale,
		LockOp:      p.LockOp * scale,
		CopyPerByte: p.CopyPerByte * scale,
	}
	for k, v := range p.HashPerByte {
		q.HashPerByte[k] = v * scale
	}
	for k, v := range p.HashFixed {
		q.HashFixed[k] = v * scale
	}
	for k, v := range p.SignCost {
		q.SignCost[k] = v * scale
	}
	return q
}

// HashTime returns the cost of one complete hash over n bytes.
func (p *Profile) HashTime(id suite.HashID, n int) sim.Duration {
	return p.HashFixed[id] + p.StreamTime(id, n)
}

// StreamTime returns the marginal cost of streaming n bytes through an
// already-initialized hash — the per-block charge used by the
// measurement engine.
func (p *Profile) StreamTime(id suite.HashID, n int) sim.Duration {
	r, ok := p.HashPerByte[id]
	if !ok {
		panic(fmt.Sprintf("costmodel: no rate for hash %q in profile %s", id, p.Name))
	}
	return sim.Duration(math.Round(r * float64(n)))
}

// MACTime returns the cost of a complete MAC over n bytes. For HMAC the
// outer hash adds one extra short hash invocation ("the cost of the
// outer hash is negligible compared to the inner one", §2.4); BLAKE2's
// keyed mode adds one extra compression for the key block.
func (p *Profile) MACTime(id suite.HashID, n int) sim.Duration {
	switch id {
	case suite.AESCMAC:
		// CMAC is inherently keyed: one extra block for finalization.
		return p.HashTime(id, n) + p.StreamTime(id, 16)
	case suite.BLAKE2b, suite.BLAKE2s:
		return p.HashTime(id, n) + p.StreamTime(id, 128)
	default:
		// Inner hash over (padded key block + message) plus outer hash
		// over (padded key block + inner digest).
		return p.HashTime(id, n+64) + p.HashTime(id, 128)
	}
}

// SignTime returns the fixed cost of producing a signature.
func (p *Profile) SignTime(id suite.SignerID) sim.Duration {
	d, ok := p.SignCost[id]
	if !ok {
		panic(fmt.Sprintf("costmodel: no sign cost for %q in profile %s", id, p.Name))
	}
	return d
}

// CrossoverBytes returns the attested size at which hashing with hash
// costs as much as signing with signer — the Figure 2 crossover point.
func (p *Profile) CrossoverBytes(hash suite.HashID, signer suite.SignerID) int {
	perByte := p.HashPerByte[hash]
	if perByte <= 0 {
		return 0
	}
	return int(float64(p.SignTime(signer)) / perByte)
}
