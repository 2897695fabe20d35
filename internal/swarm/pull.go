package swarm

import (
	"sync"

	"saferatt/internal/core"
	"saferatt/internal/transport"
)

// Pull is one in-flight collection round driven over a Transport: the
// collector requests reports from every member and accumulates the
// replies into an Aggregate. It is safe for concurrent use — over
// transport.Net replies arrive on the receive goroutine.
type Pull struct {
	tr   transport.Transport
	self string
	done func(*Aggregate)

	mu      sync.Mutex
	agg     *Aggregate
	waiting map[string]bool
	fired   bool
}

// PullOver starts a collection round over tr: it binds the collector
// under self, sends a collect request to every member, and accumulates
// their report bundles. done (optional) fires once every member has
// answered. Call Finish to cut a round short — members that never
// answered are simply absent from the aggregate and surface as Missing
// when it is judged.
//
// The same code path works over transport.Sim (members are simulated
// provers on the wrapped link, the kernel drives delivery) and over
// transport.Net (members are remote processes).
func (c *Collector) PullOver(tr transport.Transport, self string, members []string, done func(*Aggregate)) (*Pull, error) {
	p := &Pull{
		tr: tr, self: self, done: done,
		agg:     &Aggregate{Reports: map[string][]*core.Report{}},
		waiting: make(map[string]bool, len(members)),
	}
	for _, m := range members {
		p.waiting[m] = true
	}
	if err := tr.Bind(self, p.onMsg); err != nil {
		return nil, err
	}
	// A round's fan-out is one small collect request per member — the
	// shape batch coalescing exists for: over transport.Net the whole
	// fan-out leaves in a few batch frames instead of len(members)
	// datagrams.
	ms := make([]transport.Msg, len(members))
	for i, m := range members {
		ms[i] = transport.Msg{From: self, To: m, Kind: transport.KindCollect}
	}
	if err := tr.SendBatch(ms); err != nil {
		tr.Unbind(self)
		return nil, err
	}
	return p, nil
}

func (p *Pull) onMsg(m transport.Msg) {
	switch m.Kind {
	case transport.KindReport, transport.KindCollection, transport.KindSeedReport:
	default:
		return
	}
	p.mu.Lock()
	if p.fired {
		p.mu.Unlock()
		return
	}
	if _, seen := p.agg.Reports[m.From]; seen {
		// A second bundle claiming the same name mirrors the tree
		// protocol's duplicate handling: keep the first, record the
		// clash so the collector rejects the node explicitly.
		p.agg.Duplicates = append(p.agg.Duplicates, m.From)
	} else {
		p.agg.Reports[m.From] = m.Reports
		delete(p.waiting, m.From)
	}
	complete := len(p.waiting) == 0
	if complete {
		p.fired = true
	}
	p.mu.Unlock()
	if complete {
		p.finish()
	}
}

// Pending returns how many members have not answered yet.
func (p *Pull) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.waiting)
}

// Finish ends the round now and returns the aggregate, whether or not
// every member answered. Idempotent; also safe after normal completion.
func (p *Pull) Finish() *Aggregate {
	p.mu.Lock()
	already := p.fired
	p.fired = true
	p.mu.Unlock()
	if !already {
		p.finish()
	}
	return p.agg
}

func (p *Pull) finish() {
	p.tr.Unbind(p.self)
	if p.done != nil {
		p.done(p.agg)
	}
}
