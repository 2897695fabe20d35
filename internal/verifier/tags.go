package verifier

import (
	"saferatt/internal/core"
	"saferatt/internal/suite"
)

// Tags is the tag source Judge checks one bundle's reports against: the
// golden image and the way to its expected tag, as data, so no verifier
// loop hands Judge a function. Judge asks it only about a report that
// passed every cheap rule, so a forged counter, a replay or an unbound
// nonce never buys a MAC computation.
//
// A Tags serves one bundle at a time. It resolves its batch and interns
// the key once a bundle, at the first report to reach its tag, and adds
// the reports it verified through the batch to the batch's count once,
// when Judge is done. Judge starts each bundle afresh, so a caller may
// keep one Tags and change only the fields that differ.
type Tags struct {
	Key      []byte // the attestation key: MAC key and traversal-order key
	Shuffled bool   // the traversal order is keyed (SMARM)

	// The batch path, for reports with no region and no data: one
	// expected tag a group (Batch). Batch names the batch, or else
	// Images resolves ID to one. Resolving at the first report to reach
	// its tag judges a bundle against one registry generation, and a
	// bundle refused on freshness alone never probes the registry. Once
	// says the nonces cannot recur (Batch.VerifyOnce).
	Batch  *Batch
	Images *ImageSet
	ID     ImageID
	Once   bool

	// Each is the per-report path: every report when neither Batch nor
	// Images is set, and otherwise those with a region or data, which the
	// batch cannot serve. Nil refuses them instead (ErrRegionUnserved): a
	// daemon serving a uniform fleet has no per-device image to check
	// them against.
	Each *Reference

	resolved bool
	batch    *Batch // Batch, or what Images resolved ID to
	err      error  // the resolution's refusal
	kstr     string // Key interned by batch
	n        uint64 // reports verified through batch and not yet counted
}

// Reference is what a report's tag is recomputed against on the
// per-report path: the golden image, the tagging scheme (MAC or
// hash-and-sign) and the mechanism's options (Image.VerifyTag).
type Reference struct {
	Image  Image
	Scheme suite.Scheme
	Opts   core.Options
}

// check verifies r's tag; a refusal is an error TagReason maps. ls are
// the memo entry's links when r's nonce came from a NonceMemo
// (Batch.verify).
func (t *Tags) check(r *core.Report, ls *links) (bool, error) {
	batched := t.Batch != nil || t.Images != nil
	if !batched || r.RegionCount > 0 || r.Data != nil {
		if t.Each == nil {
			return false, ErrRegionUnserved
		}
		return t.Each.Image.VerifyTag(t.Each.Scheme, t.Key, t.Each.Opts, r)
	}
	if !t.resolved {
		t.batch, t.err = t.Batch, nil
		if t.batch == nil {
			t.batch, t.err = t.Images.BatchFor(t.ID)
		}
		if t.err == nil {
			t.kstr = t.batch.internKey(t.Key)
		}
		t.resolved = true
	}
	if t.err != nil {
		return false, t.err
	}
	ok, err := t.batch.verify(t.Key, t.kstr, r, t.Shuffled, !t.Once, ls)
	if err == nil {
		t.n++
	}
	return ok, err
}

// flush adds the reports verified since the last flush to the batch's
// count: one atomic add a bundle where there was one a report.
func (t *Tags) flush() {
	if t.n != 0 {
		t.batch.reports.Add(t.n)
		t.n = 0
	}
}

// begin starts a bundle: the batch is resolved again at its first
// report to reach a tag.
func (t *Tags) begin() { t.resolved = false }

// Err is the error r's tag check fails with: the error behind a later
// ReasonError, which Judge does not keep (it keeps the first failure's
// only). A malformed report fails alike twice.
func (t *Tags) Err(r *core.Report) error {
	_, err := t.check(r, nil)
	t.flush()
	return err
}
