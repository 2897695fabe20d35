package verifier

import (
	"errors"

	"saferatt/internal/core"
	"saferatt/internal/suite"
)

// The verification core: the accept rules of the paper's protocols
// (§2.2 on-demand, §3.3 ERASMUS and SeED), written once with no clock,
// no transport and no lock. Both stacks run the same loop over a
// bundle's reports — check, tag, commit — on a plain Freshness value:
// the simulated Verifier on the one it owns, rattd.Server on a copy it
// snapshots under a stripe lock, after which it replays the commits of
// the reports that came out clean on the real record, under the lock
// again. Judging the copy is sound because a commit re-checks and
// Freshness only grows: whatever a racing bundle committed in between
// can only turn a clean report into a replay, which is what the replayed
// commit reports. Rules run cheapest first: nonce binding, replay,
// monotonicity, then the tag. Nonces and tags are compared in constant
// time (ctEqual).

// Reason is a verification verdict. Its String is the only place each
// verdict's text is spelled.
type Reason uint8

const (
	ReasonOK Reason = iota
	ReasonUnsolicited
	ReasonEmptyBundle
	ReasonEmptyCollection
	ReasonNonceMismatch
	ReasonNonceUnbound
	ReasonReplay
	ReasonNonMonotonic
	ReasonCadence
	ReasonSeedNonceUnbound
	ReasonSeedReplay
	ReasonSeedMissing
	ReasonSeedGap
	ReasonTagMismatch
	ReasonError
	ReasonRegionUnserved
	// Image-policy verdicts. A report pinned to a version rotated out
	// past its grace window is ReasonStaleImage — never spuriously
	// passed against either image.
	ReasonStaleImage
	ReasonUnknownImage
	ReasonImageMismatch
	ReasonMalformedImage
)

var reasonText = [...]string{
	ReasonOK:               "",
	ReasonUnsolicited:      "unsolicited report",
	ReasonEmptyBundle:      "empty report bundle",
	ReasonEmptyCollection:  "empty collection",
	ReasonNonceMismatch:    "nonce mismatch",
	ReasonNonceUnbound:     "self-measurement nonce not bound to counter",
	ReasonReplay:           "replayed measurement counter",
	ReasonNonMonotonic:     "non-monotonic measurement counter",
	ReasonCadence:          "measurement cadence violates advertised QoA",
	ReasonSeedNonceUnbound: "SeED nonce not bound to counter",
	ReasonSeedReplay:       "replayed SeED report",
	ReasonSeedMissing:      "expected SeED report missing (dropped or device down)",
	ReasonSeedGap:          "SeED report counter gap (report dropped in flight)",
	ReasonTagMismatch:      "tag mismatch (memory deviates from golden image)",
	ReasonError:            "verification error",
	ReasonRegionUnserved:   "region/data reports are not served by rattd",
	ReasonStaleImage:       "stale image version (retired past rotation grace)",
	ReasonUnknownImage:     "unknown image id",
	ReasonImageMismatch:    "image binding mismatch",
	ReasonMalformedImage:   "malformed image id",
}

func (r Reason) String() string { return reasonText[r] }

// IsReplay reports whether the verdict is a replay rejection (what the
// Replays counters of both stacks count).
func (r Reason) IsReplay() bool { return r == ReasonReplay || r == ReasonSeedReplay }

// Text renders the verdict for a Result or a wire verdict; err is the
// failure behind a ReasonError and is ignored otherwise.
func (r Reason) Text(err error) string {
	if r == ReasonError && err != nil {
		return r.String() + ": " + err.Error()
	}
	return r.String()
}

// TagReason maps a tag check's outcome (Image.VerifyTag, Batch.Verify,
// ImageSet.Verify) to its verdict.
func TagReason(ok bool, err error) Reason {
	switch {
	case err == nil && ok:
		return ReasonOK
	case err == nil:
		return ReasonTagMismatch
	case errors.Is(err, ErrStaleImage):
		return ReasonStaleImage
	case errors.Is(err, ErrUnknownImage):
		return ReasonUnknownImage
	}
	return ReasonError
}

// labelSeedFor is held as a byte slice so the derivation writes it
// without a per-call string conversion.
var labelSeedFor = []byte("rattd-seed:")

// ChallengeNonce derives the SMART challenge nonce for a verifier's
// challenge counter; each stack passes its own label.
func ChallengeNonce(key, label []byte, ctr uint64) []byte {
	return core.AppendPRF(make([]byte, 0, 32), key, label, ctr)[:16]
}

// AppendSeedFor appends a networked prover's SeED schedule seed; daemon
// and prover each derive it from the shared key and the prover's name.
func AppendSeedFor(dst, key, prover []byte) []byte {
	out, err := suite.AppendMAC(dst, suite.SHA256, key, labelSeedFor, prover)
	if err != nil {
		panic(err) // SHA-256 is always registered
	}
	return out
}

// Challenge is a prover's outstanding SMART nonce (§2.2); nil means none
// is outstanding. The table holding it (and consuming it on the first
// response, whatever the verdict) belongs to the stack.
type Challenge []byte

// Open judges a response bundle of n reports before any is looked at.
func (c Challenge) Open(n int) Reason {
	switch {
	case c == nil:
		return ReasonUnsolicited
	case n == 0:
		return ReasonEmptyBundle
	}
	return ReasonOK
}

// Check judges one report of a response bundle that Open let in.
func (c Challenge) Check(r *core.Report) Reason {
	if !ctEqual(r.Nonce, c) {
		return ReasonNonceMismatch
	}
	return ReasonOK
}

// Freshness is one prover's durable replay state: the ERASMUS counters
// already accepted and the SeED watermark. It is a plain value the
// caller owns and synchronises.
type Freshness struct {
	Window   DedupWindow // accepted ERASMUS counters
	SeedLast uint64      // highest accepted SeED counter
}

// CheckErasmus applies the cheap §3.3 rules to one report of a
// collection: its nonce is want (core.AppendErasmusNonce of its counter),
// the counter was not accepted before, and — unless the report is the
// first of its bundle — it is above prev, the counter of the report
// before it.
func (f *Freshness) CheckErasmus(r *core.Report, want []byte, first bool, prev uint64) Reason {
	switch {
	case !ctEqual(r.Nonce, want):
		return ReasonNonceUnbound
	case f.Window.Seen(r.Counter):
		return ReasonReplay
	case !first && r.Counter <= prev:
		return ReasonNonMonotonic
	}
	return ReasonOK
}

// CommitErasmus consumes a counter whose report verified clean. It
// re-checks the window, so of two racing commits exactly one wins.
func (f *Freshness) CommitErasmus(ctr uint64) Reason {
	if !f.Window.Add(ctr) {
		return ReasonReplay
	}
	return ReasonOK
}

// CheckSeed applies the cheap rules to one SeED report: nonce bound to
// the prover's seed and counter (want is core.AppendSeedNonce), counter above
// the watermark.
func (f *Freshness) CheckSeed(r *core.Report, want []byte) Reason {
	switch {
	case !ctEqual(r.Nonce, want):
		return ReasonSeedNonceUnbound
	case r.Counter <= f.SeedLast:
		return ReasonSeedReplay
	}
	return ReasonOK
}

// CommitSeed raises the watermark to a counter whose report verified
// clean, re-checking it like CommitErasmus.
func (f *Freshness) CommitSeed(ctr uint64) Reason {
	if ctr <= f.SeedLast {
		return ReasonSeedReplay
	}
	f.SeedLast = ctr
	return ReasonOK
}
