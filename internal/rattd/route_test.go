package rattd

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"saferatt/internal/core"
	"saferatt/internal/mem"
	"saferatt/internal/transport"
	"saferatt/internal/verifier"
)

// countingLocal is the in-process transport with its NameID calls
// counted per name: what resolving a prover's route costs the
// transport.
type countingLocal struct {
	*transport.Local
	mu    sync.Mutex
	calls map[string]int
}

func newCountingLocal() *countingLocal {
	return &countingLocal{Local: transport.NewLocal(), calls: map[string]int{}}
}

func (c *countingLocal) NameID(name string) uint32 {
	c.mu.Lock()
	c.calls[name]++
	c.mu.Unlock()
	return c.Local.NameID(name)
}

func (c *countingLocal) nameIDs(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[name]
}

// routeRig is a server on a countingLocal. Provers listed in bind get an
// inbox on the transport.
type routeRig struct {
	t     *testing.T
	tr    *countingLocal
	s     *Server
	inbox map[string][]transport.Msg
}

func newRouteRig(t *testing.T, cfg Config, bind ...string) *routeRig {
	t.Helper()
	g := &routeRig{t: t, tr: newCountingLocal(), inbox: map[string][]transport.Msg{}}
	if cfg.Images == nil {
		cfg.Ref, cfg.BlockSize = GoldenImage(7, testMem, testBlock), testBlock
	}
	var err error
	if g.s, err = Serve(g.tr, cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.s.Close)
	for _, name := range bind {
		g.bind(name)
	}
	return g
}

func (g *routeRig) bind(name string) {
	g.t.Helper()
	if err := g.tr.Bind(name, func(m transport.Msg) { g.inbox[name] = append(g.inbox[name], m) }); err != nil {
		g.t.Fatal(err)
	}
}

// last returns the last message name received and how many it has.
func (g *routeRig) last(name string) (transport.Msg, int) {
	box := g.inbox[name]
	if len(box) == 0 {
		return transport.Msg{}, 0
	}
	return box[len(box)-1], len(box)
}

// route returns name's record's route and whether it is resolved.
func (g *routeRig) route(name string) (uint32, bool) {
	st, h := g.s.stripeHash(name)
	st.mu.Lock()
	defer st.mu.Unlock()
	r, _ := st.lookup(name, h)
	if r == nil {
		return 0, false
	}
	return r.route, r.has(recRouted)
}

// forged is a collection of counters [from, to] whose every tag is wrong.
func forged(t *testing.T, p *Prover, from, to uint64) []core.Report {
	t.Helper()
	var out []core.Report
	for c := from; c <= to; c++ {
		r := selfMeasure(t, p, c)
		r.Tag = append([]byte(nil), r.Tag...)
		r.Tag[0] ^= 1
		out = append(out, r)
	}
	return out
}

// TestRouteResolvedOnFirstCleanBundle pins when a record learns its
// route: the prover's first bundle to commit a clean report asks the
// transport once, and every later verdict to it — clean, replayed or a
// SMART exchange's — goes out on the stored ID without asking again.
func TestRouteResolvedOnFirstCleanBundle(t *testing.T) {
	g := newRouteRig(t, Config{}, "prv")
	p, err := NewProver("prv", DefaultKey, GoldenImage(7, testMem, testBlock), testBlock)
	if err != nil {
		t.Fatal(err)
	}
	collect(t, g.s, p, "", 1, 2)
	if n := g.tr.nameIDs("prv"); n != 1 {
		t.Fatalf("first clean bundle asked the transport %d times, want 1", n)
	}
	if id, ok := g.route("prv"); !ok || id == 0 || id != g.tr.Local.NameID("prv") {
		t.Fatalf("route %d (resolved %v), want the transport's ID %d", id, ok, g.tr.Local.NameID("prv"))
	}
	collect(t, g.s, p, "", 3, 4)
	collect(t, g.s, p, "", 1, 2) // a replay, answered on the route too
	g.s.Ingest("prv", transport.KindHello, nil)
	ch, _ := g.last("prv")
	rep, err := p.Respond(ch.Nonce)
	if err != nil {
		t.Fatal(err)
	}
	g.s.Ingest("prv", transport.KindReport, []core.Report{*rep})
	if n := g.tr.nameIDs("prv"); n != 1 {
		t.Fatalf("the transport was asked %d times, want 1", n)
	}
	var reasons []string
	for _, m := range g.inbox["prv"] {
		if m.Kind == transport.KindVerdict {
			reasons = append(reasons, m.Reason)
		}
	}
	want := []string{"", "", verifier.ReasonReplay.Text(nil), ""}
	if fmt.Sprint(reasons) != fmt.Sprint(want) {
		t.Fatalf("verdicts %q, want %q", reasons, want)
	}
}

// TestRouteNeverResolvedForRejectedNames: a name whose bundles never
// commit clean — forged tags under a bound prover's name, or under a
// name nobody bound — costs the transport no NameID and gets no route.
func TestRouteNeverResolvedForRejectedNames(t *testing.T) {
	g := newRouteRig(t, Config{}, "forger")
	img := GoldenImage(7, testMem, testBlock)
	for _, name := range []string{"forger", "spoof-1"} {
		p, err := NewProver(name, DefaultKey, img, testBlock)
		if err != nil {
			t.Fatal(err)
		}
		for r := uint64(0); r < 3; r++ {
			g.s.Ingest(name, transport.KindCollection, forged(t, p, 2*r+1, 2*r+2))
		}
		if n := g.tr.nameIDs(name); n != 0 {
			t.Fatalf("%s: the transport was asked %d times, want 0", name, n)
		}
		if _, ok := g.route(name); ok {
			t.Fatalf("%s: a route was resolved for a name that never verified", name)
		}
	}
	if m, n := g.last("forger"); n != 3 || m.OK {
		t.Fatalf("the forger got %d messages, last %+v: want 3 rejections, sent by name", n, m)
	}
	if c := g.s.Counts(); c.Accepted != 0 || c.Rejected != 12 {
		t.Fatalf("counts %+v: want 12 rejected", c)
	}
}

// TestRouteOfUnboundNameResolvesOnce: a prover with no endpoint on the
// transport resolves to 0 once and is not asked about again; its later
// verdicts go by name, so once it binds, they reach it.
func TestRouteOfUnboundNameResolvesOnce(t *testing.T) {
	g := newRouteRig(t, Config{})
	p, err := NewProver("late", DefaultKey, GoldenImage(7, testMem, testBlock), testBlock)
	if err != nil {
		t.Fatal(err)
	}
	collect(t, g.s, p, "", 1, 1)
	collect(t, g.s, p, "", 2, 2)
	if id, ok := g.route("late"); !ok || id != 0 {
		t.Fatalf("route %d (resolved %v), want 0 resolved", id, ok)
	}
	g.bind("late")
	collect(t, g.s, p, "", 3, 3)
	if n := g.tr.nameIDs("late"); n != 1 {
		t.Fatalf("the transport was asked %d times, want 1", n)
	}
	if m, n := g.last("late"); n != 1 || !m.OK {
		t.Fatalf("after binding, the prover got %d messages, last %+v: want its verdict", n, m)
	}
}

// TestRouteResolvedAgainAfterRestore: routes are not state a checkpoint
// carries, so a restored server asks the transport once again for each
// prover, on the prover's first clean bundle after the restore.
func TestRouteResolvedAgainAfterRestore(t *testing.T) {
	names := []string{"prv0", "prv1", "prv2"}
	g := newRouteRig(t, Config{Stripes: 2}, names...)
	img := GoldenImage(7, testMem, testBlock)
	prvs := make([]*Prover, len(names))
	for i, name := range names {
		var err error
		if prvs[i], err = NewProver(name, DefaultKey, img, testBlock); err != nil {
			t.Fatal(err)
		}
		collect(t, g.s, prvs[i], "", 1, 2)
	}
	g.s.Restore(g.s.Checkpoint())
	for i, name := range names {
		if _, ok := g.route(name); ok {
			t.Fatalf("%s: restored record holds a route", name)
		}
		collect(t, g.s, prvs[i], "", 1, 2) // replays: no route
		collect(t, g.s, prvs[i], "", 3, 4)
		collect(t, g.s, prvs[i], "", 5, 6)
		if n := g.tr.nameIDs(name); n != 2 {
			t.Fatalf("%s: the transport was asked %d times across the restore, want 2", name, n)
		}
		if id, ok := g.route(name); !ok || id != g.tr.Local.NameID(name) {
			t.Fatalf("%s: route %d (resolved %v) after the restore", name, id, ok)
		}
	}
}

// TestCheckpointIgnoresRoutes: a server whose records hold routes and
// one restored from it, whose records hold none, write the same bytes —
// the full snapshot, and the delta after the same bundles reach both —
// and a route shares no bits with the image binding it sits beside.
func TestCheckpointIgnoresRoutes(t *testing.T) {
	const fleet = 32
	sensor := mem.NewGolden(GoldenImage(7, testMem, testBlock), testBlock, 1)
	gateway := mem.NewGolden(GoldenImage(8, testMem, testBlock), testBlock, 1)
	serve := func() *routeRig {
		set := verifier.NewImageSet(verifier.ImageSetConfig{})
		if _, err := set.Add("sensor", verifier.ImageOfGolden(sensor)); err != nil {
			t.Fatal(err)
		}
		if _, err := set.Add("gateway", verifier.ImageOfGolden(gateway)); err != nil {
			t.Fatal(err)
		}
		return newRouteRig(t, Config{Images: set, Stripes: 4})
	}
	a, b := serve(), serve()
	prvs := make([]*Prover, fleet)
	for i := range prvs {
		g, class := sensor, "sensor"
		if i%2 == 1 {
			g, class = gateway, "gateway"
		}
		prvs[i] = imageProver(t, fmt.Sprintf("prv%03d", i), g, class)
		a.bind(prvs[i].Name)
		b.bind(prvs[i].Name)
		collect(t, a.s, prvs[i], prvs[i].ImageName, 1, 2)
		if _, ok := a.route(prvs[i].Name); !ok {
			t.Fatalf("%s: no route after a clean bundle", prvs[i].Name)
		}
	}
	b.s.Restore(a.s.Checkpoint())
	write := func(s *Server, o SnapshotOptions) []byte {
		var buf bytes.Buffer
		if _, err := s.WriteCheckpoint(&buf, o); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if fa, fb := write(a.s, SnapshotOptions{ChainID: 1}), write(b.s, SnapshotOptions{ChainID: 1}); !bytes.Equal(fa, fb) {
		t.Fatalf("full snapshots differ with routes held (%d and %d bytes)", len(fa), len(fb))
	}
	for i := 0; i < fleet; i += 3 {
		collect(t, a.s, prvs[i], "", 3, 4)
		collect(t, b.s, prvs[i], "", 3, 4)
	}
	delta := SnapshotOptions{Delta: true, ChainID: 1, Seq: 1}
	if da, db := write(a.s, delta), write(b.s, delta); !bytes.Equal(da, db) {
		t.Fatalf("deltas differ with routes held (%d and %d bytes)", len(da), len(db))
	}
	if cp := a.s.Checkpoint(); len(cp.Images) != fleet/2 {
		t.Fatalf("%d image bindings beside the routes, want %d: %v", len(cp.Images), fleet/2, cp.Images)
	}
	if c := a.s.Counts(); c.Rejected != 0 {
		t.Fatalf("counts %+v: want nothing rejected", c)
	}
}
