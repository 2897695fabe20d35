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
// what trace lines print.
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
// retain with Frame.Msg. Interned strings (Frame.From,
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
	// in an owning Frame.
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
	// Close releases the transport. Net drains in-flight retried sends
	// first (graceful drain); Sim is a no-op.
	Close() error
}

// dedup suppresses re-deliveries of (from, ReqID) pairs: the receive
// half of idempotent requests. A pair has to be remembered exactly as
// long as its sender may still retransmit it — the sender's request
// timeout, the horizon H — and a count of recent IDs is the wrong
// measure of that: a fast sender overruns any count before its first
// retry is due, and a count kept per name is paid for every name that
// ever spoke. So time is cut into generations of H/2 (rounded up) and
// the pairs of the current generation and the two before it are kept:
// a pair is remembered for more than H and at most 1.5 H, and state is
// bounded by the messages received in 1.5 H, however many names sent
// them.
type dedup struct {
	genLen int64               // generation length, in the caller's clock units
	gen    int64               // latest generation (now / genLen) any call has reached
	gens   [dedupGens]dedupGen // generation g is gens[g % dedupGens]
}

// dedupGens is how many generations dedup keeps: the current one and
// the two before it.
const dedupGens = 3

// dedupGen is one generation's pairs. A pair from an interned name is
// keyed by the name's ID, and since a request ID almost never arrives
// under two names (each Net starts its IDs at a random 64-bit offset),
// it is kept as id → name in byID: a 16-byte slot with no pointer, so
// the collector never scans it, where an {id, name} key with an empty
// value would take 24. An ID that arrives under a second name in the
// same generation keeps its whole pair in clash. A name the interner
// refused, and every Sim message (its From was never decoded), keeps
// the exact (string, id) key in strs. Never a hash of the name: a
// collision would drop, and ack, a fresh message.
type dedupGen struct {
	byID  pairMap[uint64, uint32]
	clash pairMap[idKey, struct{}]
	strs  pairMap[strKey, struct{}]
}

type idKey struct {
	id   uint64
	name uint32 // the interner's ID for the name
}

type strKey struct {
	from string
	id   uint64
}

// hasID reports whether g holds the pair k.
func (g *dedupGen) hasID(k idKey) bool {
	name, ok := g.byID.m[k.id]
	if !ok {
		return false
	}
	if name == k.name {
		return true
	}
	_, ok = g.clash.m[k]
	return ok
}

func (g *dedupGen) retire() {
	g.byID.retire()
	g.clash.retire()
	g.strs.retire()
}

// pairMap is one map of a generation. It is made by its first insert
// and reused through clear, so a generation inside the capacity an
// earlier one grew allocates nothing. Go maps never shrink, so a map
// whose generation retires having held under a quarter of the most any
// generation held in it is dropped instead: a flood's capacity is given
// back once the flood has passed.
type pairMap[K comparable, V any] struct {
	m    map[K]V
	peak int // most pairs a retired generation held in m
}

func (p *pairMap[K, V]) put(k K, v V) {
	if p.m == nil {
		p.m = make(map[K]V)
	}
	p.m[k] = v
}

func (p *pairMap[K, V]) retire() {
	n := len(p.m)
	if n < p.peak/4 {
		p.m, p.peak = nil, 0
		return
	}
	p.peak = max(p.peak, n)
	clear(p.m)
}

// defaultRequestTimeout is NetConfig.RequestTimeout's default, and the
// horizon of Sim, whose senders have no timeout of their own.
const defaultRequestTimeout = 5 * time.Second

// newDedup allocates nothing: a transport whose senders never set a
// ReqID (every simulated world) never makes a map.
func newDedup(horizon time.Duration) dedup {
	return dedup{genLen: max(1, (int64(horizon)+1)/2)}
}

// seen records (from, id) at time now and reports whether the pair was
// already present. fromID is from's interned ID, or 0 for a name the
// interner does not hold. Only a later generation turns the table: a now
// read before an earlier call's (Net's workers read the clock outside
// the lock) counts as the current one. id 0 is never tracked.
func (d *dedup) seen(from string, fromID uint32, id uint64, now int64) bool {
	if id == 0 {
		return false
	}
	if g := now / d.genLen; g > d.gen {
		// Each generation entered retires the one dedupGens before it;
		// an idle gap of dedupGens generations retires them all.
		for r := d.gen + 1; r <= g && r <= d.gen+dedupGens; r++ {
			d.gens[r%dedupGens].retire()
		}
		d.gen = g
	}
	cur := &d.gens[d.gen%dedupGens]
	if fromID == 0 {
		k := strKey{from, id}
		for i := range d.gens {
			if _, dup := d.gens[i].strs.m[k]; dup {
				return true
			}
		}
		cur.strs.put(k, struct{}{})
		return false
	}
	k := idKey{id, fromID}
	for i := range d.gens {
		if d.gens[i].hasID(k) {
			return true
		}
	}
	if _, taken := cur.byID.m[id]; taken {
		cur.clash.put(k, struct{}{})
	} else {
		cur.byID.put(id, fromID)
	}
	return false
}
