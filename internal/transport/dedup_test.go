package transport

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"saferatt/internal/channel"
	"saferatt/internal/sim"
)

// live is the number of pairs d remembers.
func (d *dedup) live() int {
	n := 0
	for i := range d.gens {
		g := &d.gens[i]
		n += len(g.byID.m) + len(g.clash.m) + len(g.strs.m)
	}
	return n
}

// liveDedup is the number of pairs all of n's dedup shards remember.
func liveDedup(n *Net) int {
	total := 0
	for i := range n.dedups {
		ds := &n.dedups[i]
		ds.mu.Lock()
		total += ds.dd.live()
		ds.mu.Unlock()
	}
	return total
}

// routeCount is the number of routes n holds: in the ID table and in
// the string map of names without an ID.
func routeCount(n *Net) int {
	n.pmu.RLock()
	defer n.pmu.RUnlock()
	c := len(n.named)
	for _, slot := range n.routes {
		if slot != 0 {
			c++
		}
	}
	return c
}

// keyForms runs a dedup test once per key form: names with an interned
// ID (each name is given its own, as the interner would), and names
// without one (ID 0: refused by the interner, or sent over Sim).
func keyForms(t *testing.T, test func(t *testing.T, seen func(d *dedup, name string, id uint64, now int64) bool)) {
	for _, interned := range []bool{true, false} {
		form := "interned"
		if !interned {
			form = "string"
		}
		t.Run(form, func(t *testing.T) {
			nameIDs := map[string]uint32{}
			test(t, func(d *dedup, name string, id uint64, now int64) bool {
				var nameID uint32
				if interned {
					if nameID = nameIDs[name]; nameID == 0 {
						nameID = uint32(len(nameIDs) + 1)
						nameIDs[name] = nameID
					}
				}
				return d.seen(name, nameID, id, now)
			})
		})
	}
}

// TestDedupHorizon pins the dedup rule on a fake clock, in both key
// forms: a pair is remembered for more than one horizon and at most one
// and a half, a stale clock reading forgets nothing, ID 0 is never
// tracked, names do not share IDs, an idle table empties itself, and a
// generation inside the capacity already grown allocates nothing.
func TestDedupHorizon(t *testing.T) {
	keyForms(t, func(t *testing.T, seen func(d *dedup, name string, id uint64, now int64) bool) {
		const h = 1000 // three generations of h/2 are kept
		d := newDedup(h)

		// Recorded at the very end of generation 0: still remembered one
		// full horizon later (now in generation 2), gone at the start of
		// generation 3 — one horizon and one tick after it was recorded.
		if seen(&d, "prv", 7, h/2-1) {
			t.Fatal("first sight reported as duplicate")
		}
		if !seen(&d, "prv", 7, h/2-1+h) {
			t.Fatal("forgotten within one horizon")
		}
		if seen(&d, "prv", 7, h/2+h) {
			t.Fatal("still remembered three generations on")
		}

		// Recorded at the very start of a generation: remembered right up
		// to one and a half horizons later, and no longer.
		d = newDedup(h)
		seen(&d, "prv", 8, 0)
		if !seen(&d, "prv", 8, 3*h/2-1) {
			t.Fatal("forgotten before one and a half horizons")
		}
		if seen(&d, "prv", 8, 3*h/2) {
			t.Fatal("remembered for one and a half horizons")
		}

		// The same two bounds at every recording time, for horizons that
		// do not halve evenly too (the generation is rounded up, so the
		// lower bound holds; the upper one grows by half a tick), down to
		// a 1 ns RequestTimeout.
		for _, hz := range []int64{1, 2, 3, 7, 1000} {
			genLen := (hz + 1) / 2
			for at := int64(0); at < 2*hz; at++ {
				e := newDedup(time.Duration(hz))
				seen(&e, "prv", 1, at)
				seen(&e, "prv", 2, at)
				if !seen(&e, "prv", 1, at+hz) {
					t.Fatalf("horizon %d: recorded at %d, forgotten within one horizon", hz, at)
				}
				if seen(&e, "prv", 2, (at/genLen+3)*genLen) {
					t.Fatalf("horizon %d: recorded at %d, remembered past three generations", hz, at)
				}
			}
		}

		// A clock reading older than an earlier call's (two Net workers
		// straddling a generation boundary, each with the now it read
		// before taking the lock) counts as the current generation: it
		// neither turns the table back nor empties it, however the stale
		// and the fresh readings interleave.
		const g = h / 2
		s := newDedup(h)
		seen(&s, "old", 1, g-2)
		for i := uint64(1); i <= 4; i++ {
			if seen(&s, "a", i, g+1) || seen(&s, "b", i, g-1) {
				t.Fatal("first sight reported as duplicate")
			}
		}
		for i := uint64(1); i <= 4; i++ {
			if !seen(&s, "a", i, g-1) || !seen(&s, "b", i, g+1) {
				t.Fatalf("ID %d forgotten after a stale clock reading", i)
			}
		}
		if !seen(&s, "old", 1, g-1) {
			t.Fatal("previous generation emptied by a stale clock reading")
		}
		if s.gen != 1 {
			t.Fatalf("generation %d after stale readings, want 1", s.gen)
		}

		// ID 0 carries no identity.
		if seen(&d, "prv", 0, 4*h) || seen(&d, "prv", 0, 4*h) {
			t.Fatal("ID 0 was tracked")
		}
		// One ID under two names is two requests; each dedups on its own,
		// within a generation and across one.
		if seen(&d, "a", 9, 4*h) || seen(&d, "b", 9, 4*h) || seen(&d, "c", 9, 4*h) {
			t.Fatal("names share an ID space")
		}
		if !seen(&d, "a", 9, 4*h) || !seen(&d, "b", 9, 4*h) || !seen(&d, "c", 9, 4*h) {
			t.Fatal("repeat under the same name not suppressed")
		}
		if seen(&d, "d", 9, 4*h+g) || !seen(&d, "d", 9, 4*h+g) || !seen(&d, "c", 9, 4*h+g) {
			t.Fatal("an ID shared across generations")
		}

		// Idle for three generations: the next call finds nothing left
		// but what it records itself.
		if d.live() == 0 {
			t.Fatal("nothing live before the idle gap")
		}
		seen(&d, "e", 1, 4*h+4*g)
		if got := d.live(); got != 1 {
			t.Fatalf("%d pairs live after an idle three generations, want 1", got)
		}

		// A generation reuses the map an earlier one grew. clear reseeds a
		// map's hash, so a generation exactly as large as the largest seen
		// can still push one table over its load limit (about one in 400
		// did); traffic a quarter under the peak never allocates.
		const n = 100_000
		names := make([]string, 64)
		for i := range names {
			names[i] = fmt.Sprintf("prv%02d", i)
		}
		fill := func(gen int64, inserts int) {
			for i := 0; i < inserts; i++ {
				seen(&d, names[i%len(names)], uint64(i+1), gen*g)
			}
		}
		for gen := int64(20); gen < 20+dedupGens; gen++ {
			fill(gen, n*5/4)
		}
		gen := int64(20 + dedupGens)
		if a := testing.AllocsPerRun(4, func() { fill(gen, n); gen++ }); a != 0 && !raceEnabled {
			t.Fatalf("warmed generation of %d inserts: %v allocs, want 0", n, a)
		}
	})
}

// TestDedupGivesBackFlood pins the flood rule: one generation of a
// million pairs, then a trickle. Go maps never shrink, so a map that
// kept the flood's capacity would hold its ~38 MB for good; once the
// flood's generation and the one after it in the same map have retired,
// the settled heap is back within 1 MiB of where it stood before.
func TestDedupGivesBackFlood(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is meaningless under the race detector")
	}
	const h, g, flood = 1000, 500, 1_000_000
	d := newDedup(h)
	trickle := func(gen int64) {
		for i := uint64(1); i <= 10; i++ {
			d.seen("", 1, uint64(gen)<<32|i, gen*g)
		}
	}
	for gen := int64(0); gen < dedupGens; gen++ {
		trickle(gen)
	}
	before := settledHeap()
	for i := 0; i < flood; i++ {
		d.seen("", uint32(i%1000+1), uint64(i+1), dedupGens*g)
	}
	peak := settledHeap()
	for gen := int64(dedupGens + 1); gen <= 3*dedupGens; gen++ {
		trickle(gen)
	}
	after := settledHeap()
	runtime.KeepAlive(&d)
	t.Logf("heap %d B before, %d B with a %d-pair flood, %d B after", before, peak, flood, after)
	if peak < before+8<<20 {
		t.Fatalf("a %d-pair flood grew the heap by only %d B", flood, int64(peak-before))
	}
	if grew := int64(after - before); grew > 1<<20 {
		t.Fatalf("the flood left %d B behind, want <= 1 MiB", grew)
	}
}

// TestDedupBytesPerPair pins the settled heap one remembered pair from
// an interned name costs: a 16-byte id → name slot in a map the
// collector does not scan, 23.6 B a pair with the map's slack. The
// (string, ID) key every pair had before cost 52.5 B.
func TestDedupBytesPerPair(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is meaningless under the race detector")
	}
	const pairs, names = 200_000, 1000
	d := newDedup(time.Minute)
	before := settledHeap()
	for i := 0; i < pairs; i++ {
		d.seen("", uint32(i%names+1), uint64(i+1), 0)
	}
	perPair := float64(int64(settledHeap()-before)) / pairs
	runtime.KeepAlive(&d)
	t.Logf("%.1f heap bytes per remembered pair", perPair)
	if perPair > 28 {
		t.Fatalf("%.1f heap bytes per remembered pair, want <= 28", perPair)
	}
}

// TestNewSimMakesNoDedupMaps pins that a Sim whose senders never set a
// ReqID — every simulated world, one per Monte Carlo trial — makes no
// dedup map: newDedup allocates nothing, and a map is made by its first
// insert.
func TestNewSimMakesNoDedupMaps(t *testing.T) {
	link := channel.New(channel.Config{Kernel: sim.NewKernel()})
	var s *Sim
	if a := testing.AllocsPerRun(100, func() { s = NewSim(link) }); a > 1 {
		t.Fatalf("NewSim: %v allocs, want 1 (the Sim)", a)
	}
	runtime.KeepAlive(s)
}

// rawSender is a bare UDP socket aimed at a Net: what it writes is
// never retransmitted, so the test decides exactly what arrives.
func rawSender(t *testing.T, srv *Net) net.Conn {
	t.Helper()
	raw, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	return raw
}

// prv names every frame of a datagram "prv" (sendRaw's from).
func prv(int) string { return "prv" }

// sendRaw writes one datagram of hello frames from `from`, one per id
// (a plain data frame for one id, an unacknowledged batch for more),
// and waits until srv has accounted for all of them.
func sendRaw(t *testing.T, raw net.Conn, srv *Net, from func(i int) string, ids []uint64) {
	t.Helper()
	s := srv.Stats()
	want := s.Received + s.Dups + uint64(len(ids))
	ms := make([]*Msg, len(ids))
	for i, id := range ids {
		ms[i] = &Msg{From: from(i), To: "vrf", Kind: KindHello, ReqID: id}
	}
	frame := AppendFrame(nil, ms[0])
	if len(ms) > 1 {
		frame = AppendBatch(nil, 0, ms)
	}
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s = srv.Stats()
		if s.Received+s.Dups == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("datagram of %d frames never accounted for: %+v", len(ids), s)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestNetDedupOutlastsFastSender is the double-delivery regression: a
// retransmission that arrives behind 2 000 newer IDs from the same
// name, all well inside the request timeout, is still a duplicate. A
// window of the last 512 IDs per name had forgotten it by then.
func TestNetDedupOutlastsFastSender(t *testing.T) {
	// The horizon is a minute so that no generation turns mid-test.
	srv, err := Listen(NetConfig{RequestTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const x = 1 << 40
	var mu sync.Mutex
	sawX := 0
	if err := srv.Bind("vrf", func(m Msg) {
		if m.ReqID == x {
			mu.Lock()
			sawX++
			mu.Unlock()
		}
	}); err != nil {
		t.Fatal(err)
	}
	raw := rawSender(t, srv)

	sendRaw(t, raw, srv, prv, []uint64{x})
	const fillers, perDatagram = 2000, 100
	ids := make([]uint64, perDatagram)
	for base := 0; base < fillers; base += perDatagram {
		for i := range ids {
			ids[i] = uint64(base + i + 1)
		}
		sendRaw(t, raw, srv, prv, ids)
	}
	sendRaw(t, raw, srv, prv, []uint64{x})

	mu.Lock()
	defer mu.Unlock()
	if s := srv.Stats(); sawX != 1 || s.Dups != 1 || s.Received != fillers+1 {
		t.Fatalf("handler saw X %d times, want 1; stats %+v", sawX, s)
	}
}

// TestNetDedupForgetsAfterOneAndAHalfHorizons pins the other side of
// the rule: one and a half request timeouts after it arrived an ID is
// gone, and a frame that reuses it is delivered again (protocol-level
// freshness, not the transport, is what rejects a replay that late).
// The test sleeps one generation longer than that; sleeping longer can
// only make it pass. This upper bound is what keeps dedup state
// proportional to recent traffic; remembering for longer is not a fix.
func TestNetDedupForgetsAfterOneAndAHalfHorizons(t *testing.T) {
	const horizon = 40 * time.Millisecond
	srv, err := Listen(NetConfig{RequestTimeout: horizon})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Bind("vrf", func(Msg) {}); err != nil {
		t.Fatal(err)
	}
	raw := rawSender(t, srv)

	sendRaw(t, raw, srv, prv, []uint64{77})
	time.Sleep(3*horizon/2 + horizon/2)
	sendRaw(t, raw, srv, prv, []uint64{77})
	if s := srv.Stats(); s.Received != 2 || s.Dups != 0 {
		t.Fatalf("ID not forgotten one and a half horizons on: %+v", s)
	}
	if live := liveDedup(srv); live != 1 {
		t.Fatalf("%d pairs remembered, want only the re-delivered one", live)
	}
}

// TestNetNoHandlerCostsNoDedupState pins that a frame addressed to an
// endpoint nobody bound is counted and dropped before its ID is
// recorded or its sender's route is learned.
func TestNetNoHandlerCostsNoDedupState(t *testing.T) {
	srv, err := Listen(NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	raw := rawSender(t, srv)
	frame := AppendFrame(nil, &Msg{From: "prv", To: "nobody", Kind: KindHello, ReqID: 5})
	for i := 0; i < 2; i++ {
		if _, err := raw.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().NoHandler != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("stats %+v, want NoHandler 2", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if s := srv.Stats(); s.Dups != 0 || s.Received != 0 {
		t.Fatalf("unbound endpoint's frames reached dedup: %+v", s)
	}
	if live := liveDedup(srv); live != 0 {
		t.Fatalf("%d pairs remembered for an unbound endpoint", live)
	}
	if routes := routeCount(srv); routes != 0 {
		t.Fatalf("%d routes learned from frames for an unbound endpoint", routes)
	}
}

// settledHeap is the live heap after two collections: pooled buffers an
// earlier test left behind survive one cycle in sync.Pool's victim cache.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestNetBytesPerName pins what a Net keeps for a name it has heard
// from once: 50 000 never-seen names send one identified frame each,
// and the live heap may grow by at most 106 B a name (96 B measured;
// 149 B when the interner and the routes were two string-keyed maps).
// What remains is the name's interned string and ID
// (TestInternBytesPerName), its route — a 4-byte slot in the Net's
// table indexed by that ID — and, for up to one and a half request
// timeouts, its (name, ID) pair; the per-name ring of 512 IDs this
// replaced cost some 5 KB. The first two last as long as the process;
// the interner's cap bounds both, and namedCap the routes of names it
// refused (TestNetRefusedNameRoutesBounded).
func TestNetBytesPerName(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is meaningless under the race detector")
	}
	const names, perDatagram = 50_000, 100
	srv, err := Listen(NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Bind("vrf", func(Msg) {}); err != nil {
		t.Fatal(err)
	}
	raw := rawSender(t, srv)
	ids := make([]uint64, perDatagram)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	// One full-size datagram first, so receive buffers and decode
	// scratch exist before the baseline is read.
	sendRaw(t, raw, srv, func(i int) string { return fmt.Sprintf("warm-%03d", i) }, ids)

	before := settledHeap()
	for base := 0; base < names; base += perDatagram {
		sendRaw(t, raw, srv, func(i int) string { return fmt.Sprintf("mem-%06d", base+i) }, ids)
	}
	perName := float64(int64(settledHeap()-before)) / names
	t.Logf("%.0f heap bytes per name after %d names", perName, names)
	if perName > 106 {
		t.Fatalf("%.0f heap bytes per name, want <= 106", perName)
	}
	if s := srv.Stats(); s.Received != names+perDatagram || s.Dups != 0 {
		t.Fatalf("not every name was delivered once: %+v", s)
	}
}

// TestNetRingHoldsDatagrams bounds what a full receive ring costs: one
// handler blocks while a sender floods a 64-slot ring with 200-byte
// messages, and the settled heap may grow by at most 1 MiB. A ring slot
// owns a copy of its datagram, not a buffer sized for the largest
// datagram UDP could carry — 64 slots of those were 4 MiB. An oversized
// frame still arrives whole afterwards (and TestNetOrderAcrossOversized
// holds its order).
func TestNetRingHoldsDatagrams(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is meaningless under the race detector")
	}
	const slots, extra = 64, 16
	srv, err := Listen(NetConfig{RecvLoops: 1, QueueCap: slots})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	entered, release := make(chan struct{}, 1), make(chan struct{})
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock() // before Close, which waits for the worker the handler holds
	var largest atomic.Int64
	if err := srv.Bind("vrf", func(m Msg) {
		if n := int64(len(m.Nonce)); n > largest.Load() {
			largest.Store(n)
		}
		select {
		case entered <- struct{}{}:
			<-release // the first delivery holds the ring's only worker
		default:
		}
	}); err != nil {
		t.Fatal(err)
	}
	raw := rawSender(t, srv)
	send := func(nonce []byte) {
		t.Helper()
		if _, err := raw.Write(AppendFrame(nil, &Msg{From: "prv", To: "vrf", Kind: KindChallenge, Nonce: nonce})); err != nil {
			t.Fatal(err)
		}
	}
	payload := make([]byte, 170) // a 200-byte frame with its header and names
	send(payload)
	<-entered

	before := settledHeap()
	for i := 0; i < slots+extra; i++ {
		send(payload)
	}
	waitUntil(t, "the ring to fill and shed", func() bool { return srv.Stats().QueueDrops == extra })
	grew := int64(settledHeap() - before)
	t.Logf("a full %d-slot ring holds %d heap bytes", slots, grew)
	if grew > 1<<20 {
		t.Fatalf("a full %d-slot ring of 200-byte datagrams grew the heap by %d B, want <= 1 MiB", slots, grew)
	}

	unblock()
	send(make([]byte, 20<<10))
	waitUntil(t, "the oversized frame", func() bool { return largest.Load() == 20<<10 })
}
