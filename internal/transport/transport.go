// Package transport is the one messaging surface between provers and
// verifiers: every RA endpoint of both stacks — the device-side provers
// (internal/prover), the simulated verifier.Verifier, rattd.Server, the
// load generators — speaks Msg over a Transport, so the
// same protocol code runs over the deterministic simulated link (Sim,
// on a channel.Link), in process (Local) and over real sockets (Net,
// UDP with retries and replay-safe request IDs). The paper's protocols
// — SMART challenge/response (§2.2), ERASMUS collection and SeED
// prover-initiated reports (§3.3) — are real network protocols; this
// package is where their messages are typed and become versioned wire
// frames.
package transport

import (
	"fmt"
	"time"

	"saferatt/internal/core"
)

// Kind is a typed protocol message kind.
type Kind uint8

// Protocol message kinds. Hello and Verdict exist only on the networked
// request/response surface (a simulated verifier challenges
// spontaneously, a daemon is asked to).
const (
	KindInvalid Kind = iota
	// KindChallenge carries a fresh nonce, Vrf -> Prv (Msg.Nonce).
	KindChallenge
	// KindRelease asks the prover to drop extended locks (t_r).
	KindRelease
	// KindCollect requests a prover's stored self-measurements.
	KindCollect
	// KindReport answers a challenge with reports (Msg.Reports).
	KindReport
	// KindCollection carries an ERASMUS history (Msg.Reports).
	KindCollection
	// KindSeedReport carries unsolicited SeED reports (Msg.Reports).
	KindSeedReport
	// KindHello registers a prover with a verifier daemon and requests
	// a challenge (networked SMART round, step 0).
	KindHello
	// KindVerdict returns a daemon's accept/reject decision
	// (Msg.OK / Msg.Reason).
	KindVerdict

	kindMax
)

var kindNames = [kindMax]string{
	KindChallenge:  "challenge",
	KindRelease:    "release",
	KindCollect:    "collect",
	KindReport:     "report",
	KindCollection: "collection",
	KindSeedReport: "seed-report",
	KindHello:      "hello",
	KindVerdict:    "verdict",
}

// String names the kind. Sim hands the name to its link, so it is also
// the key of channel.Stats.Kinds and what trace lines print.
func (k Kind) String() string {
	if k == KindInvalid || k >= kindMax {
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
	return kindNames[k]
}

// Msg is one typed protocol message. Exactly one payload group is
// meaningful per kind (see the Kind constants); the codec encodes only
// that group, so a Msg round-trips deterministically.
type Msg struct {
	From, To string
	Kind     Kind
	// ReqID, when nonzero, makes delivery idempotent: Net (which
	// retransmits) and Sim (whose senders may model a retry) deliver a
	// given (From, ReqID) pair at most once, so sender-side retries
	// cannot double-deliver. Local is a synchronous call that never
	// retransmits and keeps no such memory. Zero means "no request
	// identity" (simulated traffic), and is never deduplicated.
	ReqID uint64
	// Nonce is the challenge payload (KindChallenge).
	Nonce []byte
	// Reports is the payload of the report-carrying kinds.
	Reports []*core.Report
	// OK / Reason are the verdict payload (KindVerdict).
	OK     bool
	Reason string
	// Image, when non-empty, names the golden image the sender's
	// reports measure — a verifier.ImageID in wire form ("name" or
	// "name@vN"). A message without one is served the fleet's default
	// image.
	Image string
}

// Handler consumes delivered messages. Sim invokes handlers on the
// simulation goroutine (inside kernel event context); Net invokes them
// on a dispatch worker — a handler that blocks stalls its receive
// shard. The Msg is an owning copy: the handler may retain it freely.
type Handler func(m Msg)

// FrameHandler is the zero-copy receive form: it is handed the decoded
// view Frame itself, whose byte fields may alias a transport-owned
// receive buffer. The views are valid only until the handler returns;
// retain with Frame.Copy or Frame.Msg. Interned strings (Frame.From,
// Frame.To, Report.Dev) are plain strings and always safe to keep.
type FrameHandler func(f *Frame)

// Transport moves typed messages between named endpoints. The three
// implementations — Sim (virtual time, deterministic), Local (in
// process, synchronous) and Net (real sockets) — satisfy the same
// conformance suite (Local but for request-ID suppression, see
// Msg.ReqID); protocol code written against this interface runs
// unchanged on any of them, and a wrapper of it (a fault injector) sees
// every RA endpoint of both stacks.
type Transport interface {
	// Bind registers the receive handler for an endpoint name,
	// replacing any previous handler of either form. A nil handler, to
	// Bind or BindFrames, is an error.
	Bind(name string, h Handler) error
	// BindFrames is Bind for a handler that takes the view form. Only
	// Net has receive buffers to alias; Sim and Local wrap each Msg
	// with FrameOfMsg.
	BindFrames(name string, h FrameHandler) error
	// Unbind removes an endpoint's handler, whichever form it was bound
	// in; later deliveries to the name are dropped (and the handler
	// reference released).
	Unbind(name string)
	// Send queues m for delivery to m.To. Delivery is asynchronous and
	// datagram-shaped: messages may be lost (Sim loss model, real UDP)
	// unless a nonzero ReqID lets the transport retry, and distinct
	// messages may be reordered.
	Send(m Msg) error
	// SendBatch has Send's semantics per message (IDs assigned,
	// reliable retry, per-message routing), for a caller that has a
	// whole burst in hand: Net packs messages bound for one destination
	// into shared datagrams; Sim and Local, with no datagram cost to
	// amortize, send each in turn.
	SendBatch(ms []Msg) error
	// Close releases the transport. Net drains in-flight retried sends
	// first (graceful drain); Sim is a no-op.
	Close() error
}

// dedup suppresses re-deliveries of (from, ReqID) pairs: the receive
// half of idempotent requests. A pair has to be remembered exactly as
// long as its sender may still retransmit it — the sender's request
// timeout — and a count of recent IDs is the wrong measure of that: a
// fast sender overruns any count before its first retry is due, and a
// count kept per name is paid for every name that ever spoke. So time
// is cut into horizon-long generations and the pairs of the current
// and the previous one are kept: a pair is remembered for between one
// and two horizons, and state is bounded by the messages received in
// two horizons, however many names sent them. The emptied generation's
// map is reused, so traffic below its earlier peak allocates nothing.
type dedup struct {
	horizon  int64 // generation length, in the caller's clock units
	gen      int64 // latest generation (now / horizon) any call has reached
	cur, old map[dedupKey]struct{}
}

type dedupKey struct {
	from string
	id   uint64
}

// defaultRequestTimeout is NetConfig.RequestTimeout's default, and the
// horizon of Sim, whose senders have no timeout of their own.
const defaultRequestTimeout = 5 * time.Second

func newDedup(horizon time.Duration) dedup {
	return dedup{horizon: int64(horizon), cur: map[dedupKey]struct{}{}, old: map[dedupKey]struct{}{}}
}

// seen records (from, id) at time now and reports whether the pair was
// already present. Only a later generation turns the table: a now read
// before an earlier call's (Net's workers read the clock outside the
// lock) counts as the current one. id 0 is never tracked.
func (d *dedup) seen(from string, id uint64, now int64) bool {
	if id == 0 {
		return false
	}
	if g := now / d.horizon; g > d.gen {
		if g > d.gen+1 {
			clear(d.cur) // idle for a whole generation: both are stale
		}
		d.gen, d.cur, d.old = g, d.old, d.cur
		clear(d.cur)
	}
	k := dedupKey{from, id}
	if _, dup := d.cur[k]; dup {
		return true
	}
	if _, dup := d.old[k]; dup {
		return true
	}
	d.cur[k] = struct{}{}
	return false
}
