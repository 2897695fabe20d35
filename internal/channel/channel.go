// Package channel models the network between verifier and prover(s):
// delivery latency with deterministic jitter, random loss, and an
// optional in-path adversary that can observe and drop messages (the
// communication adversary of SeED's analysis, §3.3).
package channel

import (
	"fmt"
	"math/rand/v2"

	"saferatt/internal/sim"
	"saferatt/internal/trace"
)

// Message is one datagram in flight.
type Message struct {
	From, To string
	Kind     string // protocol-level message type, e.g. "challenge", "report"
	Payload  any
}

// Verdict is an adversary's decision about a message.
type Verdict int

// Adversary verdicts.
const (
	Deliver Verdict = iota
	Drop
)

// Adversary inspects every message and decides its fate. It may retain
// copies (for replay experiments) but cannot forge MACs/signatures —
// the standard Dolev-Yao-without-keys adversary assumed by RA designs.
type Adversary interface {
	Inspect(m Message) Verdict
}

// AdversaryFunc adapts a function to the Adversary interface.
type AdversaryFunc func(m Message) Verdict

// Inspect implements Adversary.
func (f AdversaryFunc) Inspect(m Message) Verdict { return f(m) }

// Stats counts link-level outcomes.
type Stats struct {
	Sent       int
	Delivered  int
	LostRandom int // dropped by the loss model
	LostAdv    int // dropped by the adversary
	NoRoute    int // destination not registered
}

// Link is a lossy, delaying broadcast medium with named endpoints.
type Link struct {
	Kernel  *sim.Kernel
	Latency sim.Duration
	Jitter  sim.Duration // uniform in [0, Jitter)
	Loss    float64      // independent loss probability per message
	Adv     Adversary    // optional
	Trace   *trace.Log   // optional

	rng      *rand.Rand
	handlers map[string]func(Message)
	stats    Stats
}

// Config assembles a Link.
type Config struct {
	Kernel  *sim.Kernel
	Latency sim.Duration
	Jitter  sim.Duration
	Loss    float64
	Adv     Adversary
	Trace   *trace.Log
	Seed    uint64 // jitter/loss randomness seed
}

// New builds a Link.
func New(cfg Config) *Link {
	if cfg.Kernel == nil {
		panic("channel: Kernel is required")
	}
	if cfg.Loss < 0 || cfg.Loss > 1 {
		panic(fmt.Sprintf("channel: loss %v out of [0,1]", cfg.Loss))
	}
	if cfg.Latency < 0 || cfg.Jitter < 0 {
		panic("channel: negative latency or jitter")
	}
	return &Link{
		Kernel:   cfg.Kernel,
		Latency:  cfg.Latency,
		Jitter:   cfg.Jitter,
		Loss:     cfg.Loss,
		Adv:      cfg.Adv,
		Trace:    cfg.Trace,
		rng:      rand.New(rand.NewPCG(cfg.Seed, 0x6c696e6b)),
		handlers: map[string]func(Message){},
	}
}

// Connect registers the receive handler for an endpoint name,
// replacing any previous handler.
func (l *Link) Connect(name string, h func(Message)) {
	if h == nil {
		panic("channel: nil handler")
	}
	l.handlers[name] = h
}

// Disconnect unregisters an endpoint: its handler reference is
// released immediately and messages still in flight toward it count as
// NoRoute at delivery time, exactly like a never-registered name.
func (l *Link) Disconnect(name string) {
	delete(l.handlers, name)
}

// Send queues a message for delivery after the link latency (+jitter).
// Loss and adversarial drops are decided at send time; delivery order
// between distinct messages may interleave under jitter, as on a real
// datagram network.
func (l *Link) Send(from, to, kind string, payload any) {
	m := Message{From: from, To: to, Kind: kind, Payload: payload}
	l.stats.Sent++

	if l.Adv != nil && l.Adv.Inspect(m) == Drop {
		l.stats.LostAdv++
		l.Trace.Addf(l.Kernel.Now(), trace.KindInterrupt, "adversary", "dropped %s %s->%s", kind, from, to)
		return
	}
	if l.Loss > 0 && l.rng.Float64() < l.Loss {
		l.stats.LostRandom++
		return
	}

	delay := l.Latency
	if l.Jitter > 0 {
		delay += sim.Duration(l.rng.Int64N(int64(l.Jitter)))
	}
	l.Kernel.Schedule(delay, func() {
		h, ok := l.handlers[m.To]
		if !ok {
			l.stats.NoRoute++
			return
		}
		l.stats.Delivered++
		h(m)
	})
}

// Stats returns a copy of the link counters.
func (l *Link) Stats() Stats { return l.stats }
