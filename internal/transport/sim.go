package transport

import (
	"fmt"

	"saferatt/internal/channel"
	"saferatt/internal/core"
)

// Sim adapts a simulated channel.Link to the Transport interface. It
// is a zero-cost veneer: every Send maps to exactly one link.Send with
// the same payload representation the legacy code used ([]byte nonce,
// []*core.Report bundle, nil control message), so latency, jitter,
// loss-model RNG draws, adversary inspection and trace output are
// bit-identical to driving the link directly — the property the
// conformance and equivalence suites pin.
//
// Sim inherits the kernel's single-goroutine discipline: Bind/Send
// must be called from the simulation goroutine, and handlers fire
// inside kernel event context.
type Sim struct {
	link *channel.Link
	dd   dedup
}

// NewSim wraps a link.
func NewSim(link *channel.Link) *Sim {
	if link == nil {
		panic("transport: nil link")
	}
	return &Sim{link: link, dd: newDedup(defaultRequestTimeout)}
}

// Link returns the underlying simulated link.
func (s *Sim) Link() *channel.Link { return s.link }

// Bind implements Transport.
func (s *Sim) Bind(name string, h Handler) error {
	if h == nil {
		return fmt.Errorf("transport: nil handler for %q", name)
	}
	s.link.Connect(name, func(cm channel.Message) {
		m, ok := fromChannel(cm)
		if !ok {
			return
		}
		if m.ReqID != 0 && s.dd.seen(m.From, m.ReqID, int64(s.link.Kernel.Now())) {
			return
		}
		h(m)
	})
	return nil
}

// BindFrames implements FrameBinder. Sim has no wire buffers to
// alias, so it adapts: each delivered Msg is wrapped in an owning
// Frame (FrameOfMsg) before the handler runs. Zero-copy is a Net
// property; this adapter only preserves the interface contract so
// protocol code can bind frames against either transport.
func (s *Sim) BindFrames(name string, h FrameHandler) error {
	if h == nil {
		return fmt.Errorf("transport: nil frame handler for %q", name)
	}
	return s.Bind(name, func(m Msg) {
		f := FrameOfMsg(&m)
		h(&f)
	})
}

// SendBatch implements BatchSender as a Send loop: the simulated link
// has no datagram overhead to amortize, and per-message sends keep the
// loss-model RNG draw sequence identical to legacy traffic.
func (s *Sim) SendBatch(ms []Msg) error {
	for i := range ms {
		if err := s.Send(ms[i]); err != nil {
			return err
		}
	}
	return nil
}

// Unbind implements Transport.
func (s *Sim) Unbind(name string) { s.link.Disconnect(name) }

// Send implements Transport.
func (s *Sim) Send(m Msg) error {
	if m.Kind == KindInvalid || m.Kind >= kindMax {
		return fmt.Errorf("transport: cannot send kind %v", m.Kind)
	}
	s.link.Send(m.From, m.To, m.Kind.ChannelKind(), toChannelPayload(m))
	return nil
}

// Close implements Transport. The link belongs to the caller.
func (s *Sim) Close() error { return nil }

// toChannelPayload produces the legacy payload representation for a
// typed message. Messages that fit the legacy shapes travel as those
// exact shapes (so pre-transport receivers still understand them);
// anything richer — a nonzero ReqID, a verdict — travels as the Msg
// value itself.
func toChannelPayload(m Msg) any {
	if m.ReqID == 0 && m.Image == "" {
		switch m.Kind {
		case KindChallenge:
			return m.Nonce
		case KindReport, KindCollection, KindSeedReport:
			return m.Reports
		case KindRelease, KindCollect:
			return nil
		}
	}
	return m
}

// fromChannel reconstructs a typed message from a delivered
// channel.Message, whether it was sent through a Sim (Msg payload or
// legacy shape) or by legacy code driving the link directly.
func fromChannel(cm channel.Message) (Msg, bool) {
	if m, ok := cm.Payload.(Msg); ok {
		m.From, m.To = cm.From, cm.To
		return m, true
	}
	kind := KindOfChannel(cm.Kind)
	if kind == KindInvalid {
		return Msg{}, false
	}
	m := Msg{From: cm.From, To: cm.To, Kind: kind}
	switch p := cm.Payload.(type) {
	case nil:
	case []byte:
		m.Nonce = p
	case []*core.Report:
		m.Reports = p
	default:
		return Msg{}, false
	}
	return m, true
}
