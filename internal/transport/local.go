package transport

import (
	"fmt"
	"sync"
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
// The delivered Msg is the sender's value: a handler may retain it
// only if the sender does not mutate the payload afterwards (the
// usual pattern — build, send, drop — satisfies this).
type Local struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	closed   bool
}

// NewLocal builds an empty in-process transport.
func NewLocal() *Local {
	return &Local{handlers: map[string]Handler{}}
}

// Bind registers name's handler, replacing any previous one.
func (l *Local) Bind(name string, h Handler) error {
	if h == nil {
		return fmt.Errorf("transport: nil handler for %q", name)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("transport: local transport closed")
	}
	l.handlers[name] = h
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
	l.mu.Lock()
	delete(l.handlers, name)
	l.mu.Unlock()
}

// Send delivers m to m.To synchronously on the caller's goroutine.
// Sends to unbound names are dropped silently (datagram semantics).
func (l *Local) Send(m Msg) error {
	l.mu.RLock()
	h := l.handlers[m.To]
	closed := l.closed
	l.mu.RUnlock()
	if closed {
		return fmt.Errorf("transport: local transport closed")
	}
	if h != nil {
		h(m)
	}
	return nil
}

// SendBatch delivers each message in turn (no coalescing to do in
// process).
func (l *Local) SendBatch(ms []Msg) error {
	for _, m := range ms {
		if err := l.Send(m); err != nil {
			return err
		}
	}
	return nil
}

// Close drops all handlers and fails later sends.
func (l *Local) Close() error {
	l.mu.Lock()
	l.handlers = map[string]Handler{}
	l.closed = true
	l.mu.Unlock()
	return nil
}
