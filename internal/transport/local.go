package transport

import (
	"errors"
	"fmt"
	"hash/maphash"
	"sync"

	"saferatt/internal/strtab"
)

// Local is the in-process transport: delivery is a synchronous handler
// call on the sender's goroutine — no codec, no socket, no queue. It
// exists for embeddings that drive a daemon directly at memory speed
// (benchmarks, the million-prover scale experiment) while still giving
// the daemon a real place to Send its replies.
//
// Unlike Sim (single simulation goroutine, virtual time), Local is
// safe for any number of concurrent senders: the handler table is
// read-locked per delivery, and handlers are expected to be
// concurrency-safe themselves (rattd.Server's are). Delivery is
// reliable and ordered per sender: nothing is lost and nothing is
// retransmitted, so Local keeps no request-ID memory and a caller that
// sends one (From, ReqID) pair twice is delivered it twice.
//
// A name is keyed the way Net keys it: Bind files the caller's string
// in a strtab.Table of the Local's own, under a dense ID, with the
// handler beside it. A delivery is one hash, one index probe — whose
// string compare is usually pointer-equal, since senders name peers
// with the strings they bound — and one read of the entry the compare
// already brought into cache. The table has no cap, because only Bind
// adds to it, and it never shrinks: a name stays filed, with no
// handler, after Unbind.
//
// The delivered Msg is the sender's value: a handler may retain it
// only if the sender does not mutate the payload afterwards (the
// usual pattern — build, send, drop — satisfies this).
type Local struct {
	mu     sync.RWMutex
	seed   maphash.Seed          // what names are hashed under
	closed bool                  // guarded, as names is, by mu
	names  strtab.Table[Handler] // every name ever bound, each beside its handler
}

var errLocalClosed = errors.New("transport: local transport closed")

// NewLocal builds an empty in-process transport.
func NewLocal() *Local {
	return &Local{seed: maphash.MakeSeed()}
}

// Bind registers name's handler, replacing any previous one.
func (l *Local) Bind(name string, h Handler) error {
	if h == nil {
		return fmt.Errorf("transport: nil handler for %q", name)
	}
	hash := maphash.String(l.seed, name)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errLocalClosed
	}
	id := l.names.Find(name, hash)
	if id == 0 {
		id = l.names.Add(name, hash)
	}
	l.names.At(id).Val = h
	return nil
}

// BindFrames implements Transport: Local has no receive buffer to
// alias, so each delivered Msg is wrapped in an owning Frame.
func (l *Local) BindFrames(name string, h FrameHandler) error {
	if h == nil {
		return fmt.Errorf("transport: nil frame handler for %q", name)
	}
	return l.Bind(name, framed(h))
}

// Unbind removes name's handler; later sends to it are dropped.
func (l *Local) Unbind(name string) {
	hash := maphash.String(l.seed, name)
	l.mu.Lock()
	if id := l.names.Find(name, hash); id != 0 {
		l.names.At(id).Val = nil
	}
	l.mu.Unlock()
}

// Send delivers m to m.To synchronously on the caller's goroutine.
// Sends to unbound names are dropped silently (datagram semantics).
func (l *Local) Send(m Msg) error {
	hash := maphash.String(l.seed, m.To)
	l.mu.RLock()
	if l.closed {
		l.mu.RUnlock()
		return errLocalClosed
	}
	var h Handler
	if id := l.names.Find(m.To, hash); id != 0 {
		h = l.names.At(id).Val
	}
	l.mu.RUnlock()
	if h != nil {
		h(m)
	}
	return nil
}

// Close drops all handlers and fails later sends.
func (l *Local) Close() error {
	l.mu.Lock()
	for id := uint32(1); id <= l.names.Len(); id++ {
		l.names.At(id).Val = nil
	}
	l.closed = true
	l.mu.Unlock()
	return nil
}
