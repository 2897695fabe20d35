// Package transport abstracts the messaging layer between provers and
// verifiers behind one typed interface, so the same protocol code runs
// over the deterministic simulated link (Sim, wrapping channel.Link)
// and over real sockets (Net, UDP with retries and replay-safe request
// IDs). The paper's protocols — SMART challenge/response (§2.2),
// ERASMUS collection and SeED prover-initiated reports (§3.3) — are
// real network protocols; this package is where their messages stop
// being `any` payloads and become versioned wire frames.
package transport

import (
	"fmt"

	"saferatt/internal/core"
)

// Kind is a typed protocol message kind — the wire-level replacement
// for the free-form channel.Message.Kind string.
type Kind uint8

// Protocol message kinds. The first six mirror the legacy core.Msg*
// strings one-for-one; Hello and Verdict exist only on the networked
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

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindChallenge:
		return core.MsgChallenge
	case KindRelease:
		return core.MsgRelease
	case KindCollect:
		return core.MsgCollect
	case KindReport:
		return core.MsgReport
	case KindCollection:
		return core.MsgCollection
	case KindSeedReport:
		return core.MsgSeedReport
	case KindHello:
		return "hello"
	case KindVerdict:
		return "verdict"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ChannelKind returns the legacy channel.Message.Kind string for k.
// Every kind has one, so Sim traffic renders in traces exactly like
// pre-transport traffic.
func (k Kind) ChannelKind() string { return k.String() }

// KindOfChannel maps a legacy kind string back to a Kind
// (KindInvalid for unknown strings, e.g. swarm-internal messages).
func KindOfChannel(s string) Kind {
	switch s {
	case core.MsgChallenge:
		return KindChallenge
	case core.MsgRelease:
		return KindRelease
	case core.MsgCollect:
		return KindCollect
	case core.MsgReport:
		return KindReport
	case core.MsgCollection:
		return KindCollection
	case core.MsgSeedReport:
		return KindSeedReport
	case "hello":
		return KindHello
	case "verdict":
		return KindVerdict
	default:
		return KindInvalid
	}
}

// Msg is one typed protocol message. Exactly one payload group is
// meaningful per kind (see the Kind constants); the codec encodes only
// that group, so a Msg round-trips deterministically.
type Msg struct {
	From, To string
	Kind     Kind
	// ReqID, when nonzero, makes delivery idempotent: every transport
	// delivers a given (From, ReqID) pair at most once, so sender-side
	// retries cannot double-deliver. Zero means "no request identity"
	// (legacy sim traffic), and is never deduplicated.
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

// FrameBinder is implemented by transports that can deliver view
// frames without materializing an owning Msg (Net; Sim wraps Bind).
// BindFrames replaces any handler previously registered for name with
// either Bind or BindFrames; Unbind removes both forms.
type FrameBinder interface {
	BindFrames(name string, h FrameHandler) error
}

// BatchSender is implemented by transports that can pack many
// messages into shared datagrams. SendBatch has Send's semantics per
// message (IDs assigned, reliable retry, per-message routing) but may
// coalesce messages bound for the same destination into batch
// frames, amortizing per-datagram cost. Transports without batching
// (Sim) implement it as a Send loop, so callers can use it
// unconditionally.
type BatchSender interface {
	SendBatch(ms []Msg) error
}

// Transport moves typed messages between named endpoints. Both
// implementations — Sim (virtual time, deterministic) and Net (real
// sockets) — satisfy the same conformance suite; protocol code written
// against this interface runs unchanged on either.
type Transport interface {
	// Bind registers the receive handler for an endpoint name,
	// replacing any previous handler.
	Bind(name string, h Handler) error
	// Unbind removes an endpoint's handler; later deliveries to the
	// name are dropped (and the handler reference released).
	Unbind(name string)
	// Send queues m for delivery to m.To. Delivery is asynchronous and
	// datagram-shaped: messages may be lost (Sim loss model, real UDP)
	// unless a nonzero ReqID lets the transport retry, and distinct
	// messages may be reordered.
	Send(m Msg) error
	// Close releases the transport. Net drains in-flight retried sends
	// first (graceful drain); Sim is a no-op.
	Close() error
}

// dedup suppresses re-deliveries of (from, ReqID) pairs: the receive
// half of idempotent requests. Each peer gets a sliding window of the
// last dedupWindow request IDs, so memory stays bounded per peer while
// comfortably covering any in-flight retry horizon.
type dedup struct {
	perFrom map[string]*seenRing
}

const dedupWindow = 512

type seenRing struct {
	ids  map[uint64]struct{}
	ring [dedupWindow]uint64
	pos  int
	full bool
}

// seen records (from, id) and reports whether it was already present.
// id 0 is never tracked.
func (d *dedup) seen(from string, id uint64) bool {
	if id == 0 {
		return false
	}
	if d.perFrom == nil {
		d.perFrom = map[string]*seenRing{}
	}
	r := d.perFrom[from]
	if r == nil {
		r = &seenRing{ids: map[uint64]struct{}{}}
		d.perFrom[from] = r
	}
	if _, dup := r.ids[id]; dup {
		return true
	}
	if r.full {
		delete(r.ids, r.ring[r.pos])
	}
	r.ids[id] = struct{}{}
	r.ring[r.pos] = id
	r.pos++
	if r.pos == dedupWindow {
		r.pos, r.full = 0, true
	}
	return false
}
