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
// no transport and no lock, and applied in one order by one transition,
// Judge, which every verifier loop calls. Nonces and tags are compared
// in constant time (ctEqual).

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

// IsReplay reports whether the verdict is a replay rejection (what
// Tally.Replays sums).
func (r Reason) IsReplay() bool { return r == ReasonReplay || r == ReasonSeedReplay }

// Tally counts verdicts, one counter per Reason; both stacks count into
// one. Its sums are the one place a verdict is sorted into accepted,
// rejected and replays: every verdict but ReasonOK is a rejection, and
// a replay is also one.
type Tally [len(reasonText)]uint64

func (t *Tally) Add(why Reason, n uint64) { t[why] += n }
func (t *Tally) Accepted() uint64         { return t[ReasonOK] }
func (t *Tally) Rejected() uint64         { return t.sum(func(r Reason) bool { return r != ReasonOK }) }
func (t *Tally) Replays() uint64          { return t.sum(Reason.IsReplay) }

func (t *Tally) sum(of func(Reason) bool) (n uint64) {
	for r, c := range t {
		if of(Reason(r)) {
			n += c
		}
	}
	return n
}

// Text renders the verdict for a Result or a wire verdict; err is the
// failure behind a ReasonError and is ignored otherwise.
func (r Reason) Text(err error) string {
	if r == ReasonError && err != nil {
		return r.String() + ": " + err.Error()
	}
	return r.String()
}

// ErrRegionUnserved is a tag checker's refusal of a report whose
// per-device regions or data blocks defeat the shared expected tag
// (rattd serves uniform fleets).
var ErrRegionUnserved = errors.New("verifier: region/data report not served")

// TagReason maps a tag check's outcome (Image.VerifyTag, Batch.Verify,
// ImageSet.Verify) to its verdict.
func TagReason(ok bool, err error) Reason {
	switch {
	case err == nil && ok:
		return ReasonOK
	case err == nil:
		return ReasonTagMismatch
	}
	return tagRefusal(err)
}

// tagRefusal is TagReason for a refusal, kept out of it so the clean
// and mismatched outcomes inline into Judge.
func tagRefusal(err error) Reason {
	switch {
	case errors.Is(err, ErrStaleImage):
		return ReasonStaleImage
	case errors.Is(err, ErrUnknownImage):
		return ReasonUnknownImage
	case errors.Is(err, ErrRegionUnserved):
		return ReasonRegionUnserved
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
// seq ‖ seq ‖ MAC(key, label ‖ seq ‖ seq ‖ name)[:16].
const ChallengeNonceLen = 32

// Challenger issues SMART challenges that prove themselves (the DTLS
// stateless cookie, RFC 6347 §4.2.1), so no stack stores one: the MAC
// binds the window's seq to the prover's name under a key only the
// verifier holds. A nonce is unique beyond this Challenger because its
// key is: a nonce minted under another key fails the MAC. Safe for
// concurrent use.
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

// appendMAC appends the MAC of a nonce's head (seq ‖ seq) and name to dst.
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

// Issue mints the next challenge for name. The seq is written twice:
// the leading word once held a counter leased across shards, and
// keeping it keeps the nonce 32 bytes, so the sim stack's nonces — and
// SMARM's traversal orders, which are derived from the nonce bytes —
// stay what they were.
func (c *Challenger) Issue(name string) []byte {
	seq := c.win.Issue()
	nonce := binary.BigEndian.AppendUint64(make([]byte, 0, ChallengeNonceLen), seq)
	nonce = binary.BigEndian.AppendUint64(nonce, seq)
	return c.appendMAC(nonce, nonce, name)
}

// Open judges a response bundle of n reports from name, the first
// carrying nonce, before any tag: an empty bundle, a nonce of the wrong
// length, a MAC that does not bind it to name (ReasonNonceMismatch) and
// a seq the window refuses are rejected in that order, and only a nonce
// that passes all four is consumed. Every report of the bundle must
// then carry it (Judge, SMART).
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
// Challenger.Open redeems it once, and Judge requires it of every
// report of the bundle.
type Challenge []byte

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

// Protocol names the accept rules Judge applies to a bundle.
type Protocol uint8

const (
	SMART   Protocol = iota // a challenge response (§2.2)
	ERASMUS                 // a self-measurement collection (§3.3)
	SeED                    // prover-initiated reports (§3.3)
)

// Bundle is a bundle's reports the way a stack holds them: by value off
// the wire (rattd) or by pointer (the simulator, the swarm collector).
type Bundle interface{ []core.Report | []*core.Report }

// Expect is what Judge checks one bundle against, handed over as data:
// the nonce each report must carry, the tag source and the cadence
// policy.
type Expect struct {
	// Nonce is the challenge every report of a SMART bundle carries.
	Nonce []byte
	// Nonces[i] is the nonce report i of an ERASMUS or SeED bundle must
	// carry, derived from its counter.
	Nonces [][]byte
	// Memo, if set, gives an ERASMUS bundle's nonces in Nonces' place:
	// the memo's entry for the report's counter, whose links also lead
	// to the expected tag without an epoch probe (Batch), or on a miss
	// the nonce derived under the memo's key, after which Missed reads
	// true.
	Memo   *NonceMemo
	Missed bool
	// Tags checks a tag, lazily: only a report that passed every cheap
	// rule reaches it. Held by value, so an Expect on its caller's stack
	// keeps its Tags there too.
	Tags Tags
	// Policy is ERASMUS's cadence rule; the zero policy has none.
	Policy CollectionPolicy

	derived []byte // the nonce of a Memo miss
}

// erasmusNonce returns the nonce ERASMUS report i, of counter ctr, must
// carry, and the links of the memo entry it came from (nil if none).
func (x *Expect) erasmusNonce(i int, ctr uint64) ([]byte, *links) {
	if x.Memo == nil {
		return x.Nonces[i], nil
	}
	if e := x.Memo.find(ctr); e != nil {
		return e.nonce, &e.links
	}
	x.derived = core.AppendErasmusNonce(x.derived[:0], x.Memo.key, ctr)
	x.Missed = true
	return x.derived, nil
}

// Judge is the accept transition. It applies p's rules to one bundle in
// the one order — nonce binding, replay, monotonicity, cadence
// (x.Policy), tag (x.Tags), commit on f — appends one Reason per judged
// report to why, and returns why, the first failure (ReasonOK if none)
// and its error. An empty bundle is refused whole
// (ReasonEmptyCollection for ERASMUS, ReasonEmptyBundle otherwise). A
// SMART bundle is one exchange: judging stops at its first failure,
// nothing is committed and f may be nil.
//
// What the reports are judged against comes as data (Expect), not as
// functions, so no step calls through a function value: a steady
// collection report whose nonce and expected tag are memoised costs one
// counter-keyed memo probe, the nonce compare, the window, the memo
// entry's link to its expected tag, the tag compare and the window
// commit. Only the first failure's error is kept: a caller showing the
// error behind a later ReasonError asks Tags.Err.
//
// Judge reads no clock and takes no lock. It commits to f as it goes,
// so a duplicate or out-of-order counter inside the bundle meets the
// state the reports before it left; a caller judging a copy replays the
// commits of the clean reports on the real state.
func Judge[B Bundle](why []Reason, p Protocol, f *Freshness, reports B, x *Expect) ([]Reason, Reason, error) {
	if len(reports) == 0 {
		if p == ERASMUS {
			return why, ReasonEmptyCollection, nil
		}
		return why, ReasonEmptyBundle, nil
	}
	x.Tags.begin()
	x.Missed = false
	// One loop serves both forms; ptrs is nil for a by-value bundle.
	var vals []core.Report
	var ptrs []*core.Report
	switch b := any(reports).(type) {
	case []core.Report:
		vals = b
	case []*core.Report:
		ptrs = b
	}
	first := ReasonOK
	var firstErr error
	var prev *core.Report // the report before r: ERASMUS's monotonicity and cadence
	var prevCtr uint64
	for i := range len(reports) {
		var r *core.Report
		if ptrs != nil {
			r = ptrs[i]
		} else {
			r = &vals[i]
		}
		var w Reason
		var ls *links
		switch p {
		case SMART:
			if !ctEqual(r.Nonce, x.Nonce) {
				w = ReasonNonceMismatch
			}
		case ERASMUS:
			var want []byte
			want, ls = x.erasmusNonce(i, r.Counter)
			if w = f.CheckErasmus(r, want, i == 0, prevCtr); w == ReasonOK && i > 0 && !x.Policy.allows(prev, r) {
				w = ReasonCadence
			}
		case SeED:
			w = f.CheckSeed(r, x.Nonces[i])
		}
		var ok bool
		var err error
		if w == ReasonOK {
			ok, err = x.Tags.check(r, ls)
			w = TagReason(ok, err)
		}
		switch {
		case w != ReasonOK:
		case p == ERASMUS:
			w = f.CommitErasmus(r.Counter)
		case p == SeED:
			w = f.CommitSeed(r.Counter)
		}
		why = append(why, w)
		if w != ReasonOK && first == ReasonOK {
			first, firstErr = w, err
			if p == SMART {
				break
			}
		}
		prev, prevCtr = r, r.Counter
	}
	x.Tags.flush()
	return why, first, firstErr
}
