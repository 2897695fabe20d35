package rattd

import (
	"fmt"
	"math/rand/v2"

	"saferatt/internal/core"
	"saferatt/internal/mem"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
)

// GoldenImage deterministically generates the golden memory content a
// simulated device of the same seed would hold (the experiments
// world's fill), so a networked prover and a daemon can agree on an
// image by exchanging only (seed, size, block size).
func GoldenImage(seed uint64, size, blockSize int) []byte {
	// The golden is discarded, so its bytes are the caller's own.
	return mem.RandomGolden(size, blockSize, 1, rand.New(rand.NewPCG(seed, 0xfade))).Bytes()
}

// Prover computes real measurement tags over a private image copy —
// the same math the simulated device engine performs, without a sim
// kernel: the canonical measurement encoding is a pure function of
// (key, image, nonce, round, traversal order), so a remote prover
// needs only the image bytes and the scheme.
type Prover struct {
	Name      string
	Key       []byte
	Image     []byte
	BlockSize int
	Hash      suite.HashID
	// ImageName, when non-empty, is the golden-image id this prover
	// announces on every wire message ("name" or "name@vN") so a
	// multi-image daemon verifies it against the right registry entry.
	// Empty means the daemon's default image.
	ImageName string

	order []int // traversal scratch, reused across reports
}

// NewProver builds a prover over its (private) image copy.
func NewProver(name string, key, image []byte, blockSize int) (*Prover, error) {
	if blockSize <= 0 || len(image) == 0 || len(image)%blockSize != 0 {
		return nil, fmt.Errorf("rattd: prover image of %d bytes is not a positive multiple of block size %d",
			len(image), blockSize)
	}
	return &Prover{Name: name, Key: key, Image: image, BlockSize: blockSize, Hash: suite.SHA256}, nil
}

// tag measures the prover's image under (nonce, round).
func (p *Prover) tag(nonce []byte, round int) ([]byte, error) {
	scheme := suite.Scheme{Hash: p.Hash, Key: p.Key}
	n := len(p.Image) / p.BlockSize
	p.order = core.AppendOrderRegion(p.order[:0], p.Key, nonce, round, 0, n, false)
	t, err := scheme.AcquireTagger()
	if err != nil {
		return nil, err
	}
	defer scheme.ReleaseTagger(t)
	core.ExpectedStream(t, p.Image, p.BlockSize, nonce, round, p.order)
	return t.Tag()
}

func (p *Prover) report(mech core.MechanismID, nonce []byte, round int, ctr uint64, ts sim.Time) (*core.Report, error) {
	tag, err := p.tag(nonce, round)
	if err != nil {
		return nil, err
	}
	scheme := suite.Scheme{Hash: p.Hash, Key: p.Key}
	return &core.Report{
		Mechanism: mech, Scheme: scheme.Name(),
		Nonce: append([]byte(nil), nonce...), Round: round, Counter: ctr,
		Tag: tag, TS: ts, TE: ts,
		BlockSize: p.BlockSize, NumBlocks: len(p.Image) / p.BlockSize,
	}, nil
}

// Respond answers a SMART challenge nonce with a measurement report.
func (p *Prover) Respond(nonce []byte) (*core.Report, error) {
	return p.report(core.SMART, nonce, 0, 0, 0)
}

// SelfMeasure produces one ERASMUS self-measurement for counter ctr,
// with the counter-bound self-derived nonce the daemon expects.
func (p *Prover) SelfMeasure(ctr uint64) (*core.Report, error) {
	nonce := core.AppendErasmusNonce(nil, p.Key, ctr)
	return p.report(core.NoLock, nonce, 0, ctr, sim.Time(ctr)*sim.Time(sim.Second))
}

// SeedReport produces one SeED report for counter ctr, nonce-bound to
// the prover's derived schedule seed.
func (p *Prover) SeedReport(ctr uint64) (*core.Report, error) {
	nonce := core.AppendSeedNonce(nil, SeedFor(p.Key, p.Name), ctr)
	return p.report(core.NoLock, nonce, 0, ctr, sim.Time(ctr)*sim.Time(sim.Second))
}

// ShardOf returns the prover's home shard in an n-shard tier — the
// client side of the tier's routing contract (rendezvous hash over
// the prover name; see ShardFor).
func (p *Prover) ShardOf(n int) int { return ShardFor(p.Name, n) }
