package transport

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// live is the number of pairs d remembers.
func (d *dedup) live() int { return len(d.cur) + len(d.old) }

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

// TestDedupHorizon pins the dedup rule on a fake clock: a pair is
// remembered through one full horizon at least and two at most, a
// stale clock reading forgets nothing, ID 0 is never tracked, names do
// not share IDs, an idle table empties
// itself, and a generation inside the capacity already grown allocates
// nothing.
func TestDedupHorizon(t *testing.T) {
	const h = 1000
	d := newDedup(h)

	// Recorded at the very end of generation 0: still remembered one
	// full horizon later (now in generation 1), gone at the start of
	// generation 2 — one horizon and one tick after it was recorded.
	if d.seen("prv", 7, h-1) {
		t.Fatal("first sight reported as duplicate")
	}
	if !d.seen("prv", 7, h-1+h) {
		t.Fatal("forgotten within one horizon")
	}
	if d.seen("prv", 7, 2*h) {
		t.Fatal("still remembered in the generation after next")
	}

	// Recorded at the very start of a generation: remembered right up
	// to two horizons later, and no longer.
	d = newDedup(h)
	d.seen("prv", 8, 0)
	if !d.seen("prv", 8, 2*h-1) {
		t.Fatal("forgotten before the generation after next began")
	}
	if d.seen("prv", 8, 4*h) {
		t.Fatal("remembered across an idle gap of two horizons")
	}

	// A clock reading older than an earlier call's (two Net workers
	// straddling a generation boundary, each with the now it read
	// before taking the lock) counts as the current generation: it
	// neither turns the table back nor empties it, however the stale
	// and the fresh readings interleave.
	s := newDedup(h)
	s.seen("old", 1, h-2)
	for i := uint64(1); i <= 4; i++ {
		if s.seen("a", i, h+1) || s.seen("b", i, h-1) {
			t.Fatal("first sight reported as duplicate")
		}
	}
	for i := uint64(1); i <= 4; i++ {
		if !s.seen("a", i, h-1) || !s.seen("b", i, h+1) {
			t.Fatalf("ID %d forgotten after a stale clock reading", i)
		}
	}
	if !s.seen("old", 1, h-1) {
		t.Fatal("previous generation emptied by a stale clock reading")
	}
	if s.gen != 1 {
		t.Fatalf("generation %d after stale readings, want 1", s.gen)
	}

	// ID 0 carries no identity.
	if d.seen("prv", 0, 4*h) || d.seen("prv", 0, 4*h) {
		t.Fatal("ID 0 was tracked")
	}
	// One ID under two names is two requests; each dedups on its own.
	if d.seen("a", 9, 4*h) || d.seen("b", 9, 4*h) {
		t.Fatal("names share an ID space")
	}
	if !d.seen("a", 9, 4*h) || !d.seen("b", 9, 4*h) {
		t.Fatal("repeat under the same name not suppressed")
	}

	// Idle for two horizons: the next call finds nothing left but
	// what it records itself.
	if d.live() == 0 {
		t.Fatal("nothing live before the idle gap")
	}
	d.seen("c", 1, 6*h)
	if got := d.live(); got != 1 {
		t.Fatalf("%d pairs live after an idle 2x horizon, want 1", got)
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
			d.seen(names[i%len(names)], uint64(i+1), gen*h)
		}
	}
	fill(10, n*5/4)
	fill(11, n*5/4)
	gen := int64(12)
	if a := testing.AllocsPerRun(4, func() { fill(gen, n); gen++ }); a != 0 && !raceEnabled {
		t.Fatalf("warmed generation of %d inserts: %v allocs, want 0", n, a)
	}
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

// TestNetDedupForgetsAfterTwoHorizons pins the other side of the rule:
// two request timeouts after it arrived an ID is gone, and a frame
// that reuses it is delivered again (protocol-level freshness, not the
// transport, is what rejects a replay that late). This upper bound is
// what keeps dedup state proportional to recent traffic; remembering
// for longer is not a fix.
func TestNetDedupForgetsAfterTwoHorizons(t *testing.T) {
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
	time.Sleep(2 * horizon)
	sendRaw(t, raw, srv, prv, []uint64{77})
	if s := srv.Stats(); s.Received != 2 || s.Dups != 0 {
		t.Fatalf("ID not forgotten two horizons on: %+v", s)
	}
	if live := liveDedup(srv); live != 1 {
		t.Fatalf("%d pairs remembered, want only the re-delivered one", live)
	}
}

// TestNetNoHandlerCostsNoDedupState pins that a frame addressed to an
// endpoint nobody bound is counted and dropped before its ID is
// recorded.
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
// and the live heap may grow by at most 256 B a name. What remains is
// the route learned for the name (peers), its interned string, and —
// for two request timeouts — its (name, ID) pair; the per-name ring of
// 512 IDs this replaced cost some 5 KB. The first two are not bounded
// by anything yet (ROADMAP, "Hostile-input and overload").
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
	if perName > 256 {
		t.Fatalf("%.0f heap bytes per name, want <= 256", perName)
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
	srv, err := Listen(NetConfig{RecvLoops: 1, RecvQueues: 1, QueueCap: slots})
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
