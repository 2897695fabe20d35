package verifier

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"
	"sync"

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

// AppendSeedFor appends a networked prover's SeED schedule seed; daemon
// and prover each derive it from the shared key and the prover's name.
func AppendSeedFor(dst, key, prover []byte) []byte {
	out, err := suite.AppendMAC(dst, suite.SHA256, key, labelSeedFor, prover)
	if err != nil {
		panic(err) // SHA-256 is always registered
	}
	return out
}

// ChallengeNonceLen is the length of a SMART challenge nonce:
// ctr ‖ seq ‖ MAC(key, label ‖ ctr ‖ seq ‖ name)[:16].
const ChallengeNonceLen = 32

// Challenger issues SMART challenges that prove themselves (the DTLS
// stateless cookie, RFC 6347 §4.2.1), so no stack stores one: the MAC
// binds the caller's counter ctr, which keeps nonces unique beyond this
// Challenger, and the window's seq to the prover's name, under a key
// only the verifier holds. Safe for concurrent use.
type Challenger struct {
	label []byte
	macs  sync.Pool // *challengeMAC: a MAC state under the key, a staging buffer
	win   ChallengeWindow
}

type challengeMAC struct {
	h   hash.Hash
	buf []byte
}

// NewChallenger returns a Challenger keyed by key, which must be the
// verifier's alone: whoever holds it can mint challenges. A nil key is
// drawn from crypto/rand.
func NewChallenger(key, label []byte) *Challenger {
	if key == nil {
		key = make([]byte, sha256.Size)
		if _, err := rand.Read(key); err != nil {
			panic(err)
		}
	}
	c := &Challenger{label: label}
	c.macs.New = func() any { return &challengeMAC{h: hmac.New(sha256.New, key)} }
	return c
}

// appendMAC appends the MAC of a nonce's head (ctr ‖ seq) and name to dst.
func (c *Challenger) appendMAC(dst, head []byte, name string) []byte {
	m := c.macs.Get().(*challengeMAC)
	m.buf = append(append(m.buf[:0], head...), name...)
	m.h.Write(c.label)
	m.h.Write(m.buf)
	m.buf = m.h.Sum(m.buf[:0])
	m.h.Reset()
	dst = append(dst, m.buf[:16]...)
	c.macs.Put(m)
	return dst
}

// Issue mints the challenge for name under counter ctr.
func (c *Challenger) Issue(ctr uint64, name string) []byte {
	nonce := binary.BigEndian.AppendUint64(make([]byte, 0, ChallengeNonceLen), ctr)
	nonce = binary.BigEndian.AppendUint64(nonce, c.win.Issue())
	return c.appendMAC(nonce, nonce, name)
}

// Open judges a response bundle of n reports from name, the first
// carrying nonce, before any tag: an empty bundle, a nonce of the wrong
// length, a MAC that does not bind it to name (ReasonNonceMismatch) and
// a seq the window refuses are rejected in that order, and only a nonce
// that passes all four is consumed. Every report of the bundle must
// then carry it (Challenge.Check).
func (c *Challenger) Open(name string, n int, nonce Challenge) Reason {
	var want [ChallengeNonceLen]byte
	switch {
	case n == 0:
		return ReasonEmptyBundle
	case len(nonce) != ChallengeNonceLen:
		return ReasonUnsolicited
	case !ctEqual(nonce, c.appendMAC(append(want[:0], nonce[:16]...), nonce[:16], name)):
		return ReasonNonceMismatch
	case !c.win.Redeem(binary.BigEndian.Uint64(nonce[8:])):
		return ReasonUnsolicited
	}
	return ReasonOK
}

// Challenge is the nonce a SMART response bundle answers (§2.2):
// Challenger.Open redeems it once, and every report of the bundle must
// carry it.
type Challenge []byte

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
