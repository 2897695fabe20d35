package transport

import (
	"fmt"

	"saferatt/internal/channel"
)

// Sim is the Transport over a simulated channel.Link. Every Send is
// exactly one link.Send, with the kind's name as the link-level kind
// and the Msg itself as the payload, so latency, jitter, loss-model RNG
// draws, adversary inspection, per-kind Stats and trace output depend
// only on the order of sends.
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

// MsgOf returns the protocol message a link datagram carries — what an
// in-path channel.Adversary inspects. ok is false for traffic that is
// not RA protocol (update/erase services, software attestation, swarm
// tree aggregation share the link but not this package).
func MsgOf(cm channel.Message) (Msg, bool) {
	m, ok := cm.Payload.(Msg)
	return m, ok
}

// Bind implements Transport.
func (s *Sim) Bind(name string, h Handler) error {
	if h == nil {
		return fmt.Errorf("transport: nil handler for %q", name)
	}
	s.link.Connect(name, func(cm channel.Message) {
		m, ok := MsgOf(cm)
		if !ok {
			return
		}
		if m.ReqID != 0 && s.dd.seen(m.From, 0, m.ReqID, int64(s.link.Kernel.Now())) {
			return
		}
		h(m)
	})
	return nil
}

// BindFrames implements Transport: each delivered Msg is wrapped in an
// owning Frame before the handler runs.
func (s *Sim) BindFrames(name string, h FrameHandler) error {
	if h == nil {
		return fmt.Errorf("transport: nil frame handler for %q", name)
	}
	return s.Bind(name, framed(h))
}

// SendBatch implements Transport as a Send loop: per-message sends keep
// the loss-model RNG draw sequence that of the same messages sent
// singly.
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
	s.link.Send(m.From, m.To, m.Kind.String(), m)
	return nil
}

// Close implements Transport. The link belongs to the caller.
func (s *Sim) Close() error { return nil }
