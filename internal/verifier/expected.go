package verifier

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"saferatt/internal/core"
	"saferatt/internal/inccache"
	"saferatt/internal/suite"
)

// digestSlot lazily holds an Image's per-block digest cache — the
// golden image is immutable, so its digests are computed once per image,
// not once per report. A golden-backed image resolves to the golden's
// own inccache.SharedImage, so verifier and devices share one.
type digestSlot struct {
	p  atomic.Pointer[inccache.ImageCache]
	mu sync.Mutex
}

// digests returns the image's digest cache under a measurement hash.
func (im Image) digests(hash suite.HashID) *inccache.ImageCache {
	dh := inccache.DigestHash(hash)
	if c := im.dig.p.Load(); c != nil && c.Hash() == dh {
		return c
	}
	im.dig.mu.Lock()
	defer im.dig.mu.Unlock()
	c := im.dig.p.Load()
	if c == nil || c.Hash() != dh {
		if im.golden != nil {
			c = inccache.SharedImage(im.golden, dh)
		} else {
			c = inccache.NewImage(im.ref, im.blockSize, dh)
		}
		im.dig.p.Store(c)
	}
	return c
}

// checkGeometry compares a report's claimed geometry with the image's
// own. The report's numbers come off the wire; nothing may index or
// divide by them. Pointer receiver: Batch calls this once per report,
// and the handle is seven words.
func (im *Image) checkGeometry(r *core.Report) error {
	if im.ref == nil || r.BlockSize != im.blockSize || r.NumBlocks != im.numBlocks {
		return fmt.Errorf("verifier: geometry mismatch: report %dx%d vs image %dx%d",
			r.NumBlocks, r.BlockSize, im.numBlocks, im.blockSize)
	}
	return nil
}

type orderBuf struct{ order []int }

// orderScratch recycles traversal-order slices: the order is only
// needed while the expected stream is being fed to the tagger.
var orderScratch = sync.Pool{New: func() any { return new(orderBuf) }}

// writeExpected writes to w the measurement stream a healthy prover
// holding im produces for r: the traversal order re-derived from key
// over the report's region (the whole image when it names none), the
// data region of opts honored (zeroed blocks expected zero, reported
// blocks taken verbatim from the report, §2.3), and the report's data
// path mirrored — raw bytes for streaming reports, cached per-block
// golden digests for incremental ones. Every verifier in the
// repository reaches that branch through here. Of opts only Shuffled
// and Data are read; hash is the measurement hash.
func (im Image) writeExpected(w io.Writer, hash suite.HashID, key []byte, opts core.Options, r *core.Report) error {
	if err := im.checkGeometry(r); err != nil {
		return err
	}
	start, count := 0, im.NumBlocks()
	if r.RegionCount > 0 {
		if r.RegionStart < 0 || r.RegionCount > count-r.RegionStart {
			return fmt.Errorf("verifier: report region [%d,+%d) exceeds memory", r.RegionStart, r.RegionCount)
		}
		start, count = r.RegionStart, r.RegionCount
	}
	sc := orderScratch.Get().(*orderBuf)
	defer orderScratch.Put(sc)
	sc.order = core.AppendOrderRegion(sc.order[:0], key, r.Nonce, r.Round, start, count, opts.Shuffled)
	if r.Incremental {
		digest, err := core.EffectiveDigests(im.digests(hash), opts.Data, r.Data)
		if err != nil {
			return err
		}
		return core.ExpectedDigestStream(w, digest, r.Nonce, r.Round, sc.order)
	}
	ref, err := core.EffectiveReference(im.ref, im.blockSize, opts.Data, r.Data)
	if err != nil {
		return err
	}
	core.ExpectedStream(w, ref, im.blockSize, r.Nonce, r.Round, sc.order)
	return nil
}

// VerifyTag recomputes r's expected measurement over the image and
// checks the report's tag against it under scheme (MAC or
// hash-and-sign). key derives shuffled traversal orders — the
// attestation key in the MAC setting.
func (im Image) VerifyTag(scheme suite.Scheme, key []byte, opts core.Options, r *core.Report) (bool, error) {
	return scheme.VerifyStream(func(w io.Writer) error {
		return im.writeExpected(w, scheme.Hash, key, opts, r)
	}, r.Tag)
}

// ExpectedTag returns the tag a healthy prover would have put on r —
// the MAC-mode form callers cache and compare many reports against.
func (im Image) ExpectedTag(scheme suite.Scheme, key []byte, opts core.Options, r *core.Report) ([]byte, error) {
	t, err := scheme.AcquireTagger()
	if err != nil {
		return nil, err
	}
	defer scheme.ReleaseTagger(t)
	if err := im.writeExpected(t, scheme.Hash, key, opts, r); err != nil {
		return nil, err
	}
	return t.Tag()
}
