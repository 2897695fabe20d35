// Package softratt implements software-based remote attestation in the
// style of Pioneer (§2.1): no ROM key, no MPU — just "a one-time
// special checksum function that covers memory in an unpredictable
// (rather than contiguous) fashion", verified by TIMING. Any malware
// that redirects the checksum's memory reads (to hide its presence)
// pays extra latency per access, and the verifier rejects responses
// that arrive late.
//
// The package also reproduces why this approach is fragile ("security
// of this approach is uncertain after several attacks", citing
// Castelluccia et al.): the verifier's time threshold must absorb
// network jitter, and once the jitter budget exceeds the adversary's
// redirection overhead the attack slips under the threshold — measured
// in the E9 experiment.
package softratt

import (
	"fmt"
	"math/bits"

	"saferatt/internal/channel"
	"saferatt/internal/device"
	"saferatt/internal/sim"
)

// Message kinds.
const (
	MsgSoftChallenge = "soft-challenge" // Vrf -> Prv: *Challenge
	MsgSoftResponse  = "soft-response"  // Prv -> Vrf: *Response
)

// Challenge seeds the checksum traversal.
type Challenge struct {
	Seed       uint64
	Iterations int
	SentAt     sim.Time
}

// Response carries the checksum and the prover-side compute span.
type Response struct {
	Seed     uint64
	Checksum [8]uint64
	TS, TE   sim.Time
}

// ComputeChecksum runs the Pioneer-style checksum: iterations
// pseudorandom reads over the memory image, each mixed into an 8-lane
// state with data-dependent rotation (so the computation cannot be
// reordered or parallelized trivially). It is NOT a cryptographic MAC —
// that is the point of software-based attestation — but it is strongly
// input- and order-dependent.
func ComputeChecksum(image []byte, seed uint64, iterations int) [8]uint64 {
	var state [8]uint64
	for i := range state {
		state[i] = seed ^ (0x9E3779B97F4A7C15 * uint64(i+1))
	}
	x := seed | 1
	n := uint64(len(image))
	if n == 0 {
		return state
	}
	for i := 0; i < iterations; i++ {
		// xorshift64 address generator.
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := x % n
		v := uint64(image[addr])
		lane := i & 7
		s := state[lane]
		s = bits.RotateLeft64(s^(v*0x100000001B3), int(1+v%63))
		s += x + uint64(addr)
		state[lane] = s
		// Cross-lane diffusion.
		state[(lane+1)&7] ^= bits.RotateLeft64(s, 29)
	}
	return state
}

// Prover answers timing challenges. AccessOverhead models
// self-relocating malware interposing on memory reads: each checksum
// access costs that much extra (the "extra latency incurred by
// self-relocating malware moving itself (in parts) while trying to
// avoid being 'caught'"). Zero means an honest device.
type Prover struct {
	Name string
	Dev  *device.Device
	Link *channel.Link
	// PerAccess is the honest per-iteration cost.
	PerAccess sim.Duration
	// AccessOverhead is the adversarial extra cost per iteration.
	AccessOverhead sim.Duration
	// ChunkIterations bounds each task step (the checksum runs at top
	// priority and is effectively atomic, as Pioneer requires).
	ChunkIterations int
	// Image supplies the bytes the checksum actually reads. Honest
	// devices read live memory (the default); redirecting malware
	// serves the clean reference from hidden copies — correct checksum,
	// extra AccessOverhead per read.
	Image func() []byte

	task *device.Task
}

// NewProver wires a software-RA prover to the link.
func NewProver(name string, dev *device.Device, link *channel.Link, perAccess sim.Duration) *Prover {
	p := &Prover{
		Name: name, Dev: dev, Link: link,
		PerAccess:       perAccess,
		ChunkIterations: 4096,
	}
	p.task = dev.NewTask("softMP:"+name, 1000) // Pioneer: highest priority
	link.Connect(name, p.onMessage)
	return p
}

func (p *Prover) onMessage(m channel.Message) {
	ch, ok := m.Payload.(*Challenge)
	if !ok || m.Kind != MsgSoftChallenge {
		return
	}
	from := m.From
	per := p.PerAccess + p.AccessOverhead
	total := sim.Duration(ch.Iterations) * per
	ts := p.Dev.Kernel.Now()
	p.Dev.DisableInterrupts(p.task)
	// Model the compute as chunked steps (timing is what matters; the
	// checksum itself is computed once at the end over the live image).
	chunks := (ch.Iterations + p.ChunkIterations - 1) / p.ChunkIterations
	if chunks == 0 {
		chunks = 1
	}
	chunkDur := total / sim.Duration(chunks)
	var step func(i int)
	step = func(i int) {
		if i >= chunks {
			var image []byte
			if p.Image != nil {
				image = p.Image()
			} else {
				image = p.Dev.Mem.Snapshot()
			}
			sum := ComputeChecksum(image, ch.Seed, ch.Iterations)
			p.Dev.EnableInterrupts()
			p.Link.Send(p.Name, from, MsgSoftResponse, &Response{
				Seed: ch.Seed, Checksum: sum, TS: ts, TE: p.Dev.Kernel.Now(),
			})
			return
		}
		p.task.Submit(chunkDur, func() { step(i + 1) })
	}
	step(0)
}

// Verdict records one timing-verification outcome.
type Verdict struct {
	OK        bool
	Reason    string
	Elapsed   sim.Duration // challenge sent -> response received (Vrf clock)
	Threshold sim.Duration
}

// Verifier issues challenges and checks both checksum and round-trip
// time. Software-based RA has no shared key, so timing is the ONLY
// defense against redirection.
type Verifier struct {
	Name string
	Link *channel.Link
	K    *sim.Kernel
	// Ref is the golden image for checksum recomputation.
	Ref []byte
	// PerAccess is the honest per-iteration cost the verifier assumes.
	PerAccess sim.Duration
	// RTTBudget is the allowance for network round trip + jitter; the
	// threshold is compute-time + RTTBudget. Too generous a budget is
	// exactly what the §2.1 attacks exploit.
	RTTBudget sim.Duration

	pending map[uint64]*Challenge
	// Verdicts in arrival order.
	Verdicts []Verdict
	seedCtr  uint64
}

// NewVerifier wires the timing verifier to the link.
func NewVerifier(name string, k *sim.Kernel, link *channel.Link, ref []byte, perAccess, rttBudget sim.Duration) *Verifier {
	v := &Verifier{
		Name: name, Link: link, K: k, Ref: ref,
		PerAccess: perAccess, RTTBudget: rttBudget,
		pending: map[uint64]*Challenge{},
	}
	link.Connect(name, v.onMessage)
	return v
}

// Challenge issues a fresh timing challenge.
func (v *Verifier) Challenge(prover string, iterations int) *Challenge {
	v.seedCtr++
	ch := &Challenge{
		Seed:       v.seedCtr*0xD1B54A32D192ED03 + 0x2545F4914F6CDD1D,
		Iterations: iterations,
		SentAt:     v.K.Now(),
	}
	v.pending[ch.Seed] = ch
	v.Link.Send(v.Name, prover, MsgSoftChallenge, ch)
	return ch
}

func (v *Verifier) onMessage(m channel.Message) {
	resp, ok := m.Payload.(*Response)
	if !ok || m.Kind != MsgSoftResponse {
		return
	}
	ch, ok := v.pending[resp.Seed]
	if !ok {
		v.Verdicts = append(v.Verdicts, Verdict{Reason: "unsolicited response"})
		return
	}
	delete(v.pending, resp.Seed)

	elapsed := v.K.Now().Sub(ch.SentAt)
	threshold := sim.Duration(ch.Iterations)*v.PerAccess + v.RTTBudget
	verdict := Verdict{Elapsed: elapsed, Threshold: threshold}
	switch {
	case ComputeChecksum(v.Ref, ch.Seed, ch.Iterations) != resp.Checksum:
		verdict.Reason = "checksum mismatch"
	case elapsed > threshold:
		verdict.Reason = fmt.Sprintf("response too slow: %v > %v", elapsed, threshold)
	default:
		verdict.OK = true
	}
	v.Verdicts = append(v.Verdicts, verdict)
}
