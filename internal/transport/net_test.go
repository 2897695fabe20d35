package transport

import (
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestNetLossRetrySurvival pins the reliability contract: under heavy
// injected datagram loss on both sides (data frames and acks alike),
// every reliable send is still delivered exactly once.
func TestNetLossRetrySurvival(t *testing.T) {
	const drop = 0.25
	srv, err := Listen(NetConfig{DropRate: drop, DropSeed: 1, RetryBase: 2 * time.Millisecond, RetryCap: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr().String(), NetConfig{DropRate: drop, DropSeed: 2, RetryBase: 2 * time.Millisecond, RetryCap: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const total = 200
	var mu sync.Mutex
	got := map[uint64]int{}
	if err := srv.Bind("vrf", func(m Msg) {
		mu.Lock()
		got[m.ReqID]++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= total; i++ {
		if err := cli.Send(Msg{From: "prv", To: "vrf", Kind: KindHello, ReqID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == total {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != total {
		t.Fatalf("delivered %d/%d distinct requests under %.0f%% loss", len(got), total, drop*100)
	}
	for id, count := range got {
		if count != 1 {
			t.Fatalf("request %d delivered %d times", id, count)
		}
	}
	cs, ss := cli.Stats(), srv.Stats()
	if cs.Resent == 0 {
		t.Fatalf("no retransmissions under %.0f%% injected loss: %+v", drop*100, cs)
	}
	if cs.Injected == 0 && ss.Injected == 0 {
		t.Fatalf("loss model never fired: cli %+v srv %+v", cs, ss)
	}
}

// TestNetDrainCompletes pins graceful drain: after Drain returns with
// loss in play, no reliable send is still pending.
func TestNetDrainCompletes(t *testing.T) {
	srv, err := Listen(NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr().String(), NetConfig{DropRate: 0.3, DropSeed: 3, RetryBase: 2 * time.Millisecond, RetryCap: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv.Bind("vrf", func(Msg) {})
	for i := 0; i < 50; i++ {
		if err := cli.Send(Msg{From: "prv", To: "vrf", Kind: KindHello}); err != nil {
			t.Fatal(err)
		}
	}
	cli.Drain(5 * time.Second)
	if left := cli.pendingCount(); left != 0 {
		t.Fatalf("%d requests still pending after drain", left)
	}
	// One ack confirms one datagram: a plain frame is one message, a
	// batch frame the Coalesced messages it carries.
	if s := cli.Stats(); s.Acked-s.BatchesSent+s.Coalesced != 50 {
		t.Fatalf("acked %d datagrams covering fewer than 50 messages after drain: %+v", s.Acked, s)
	}
}

// TestNetRequestExpiry pins the per-request deadline: a peer that never
// acks makes the send expire instead of retrying forever.
func TestNetRequestExpiry(t *testing.T) {
	cli, err := Listen(NetConfig{RetryBase: 2 * time.Millisecond, RetryCap: 10 * time.Millisecond, RequestTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// Dead peer: grab a kernel-assigned port, then close it. Sends to
	// the address succeed at the UDP layer but nothing ever acks.
	dead, err := Listen(NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	addr := dead.Addr().String()
	dead.Close()
	if err := cli.AddRoute("vrf", addr); err != nil {
		t.Fatal(err)
	}
	if err := cli.Send(Msg{From: "prv", To: "vrf", Kind: KindHello}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cli.Stats().Expired == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s := cli.Stats(); s.Expired != 1 || s.Acked != 0 {
		t.Fatalf("expected one expired request: %+v", s)
	}
	if cli.pendingCount() != 0 {
		t.Fatalf("expired request still pending")
	}
}

// TestNetNoRoute pins the error path for an unroutable destination on a
// transport with no default route.
func TestNetNoRoute(t *testing.T) {
	n, err := Listen(NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Send(Msg{From: "a", To: "nowhere", Kind: KindHello}); err == nil {
		t.Fatal("send to unroutable name succeeded")
	}
}

// TestNetRoutes pins where a Net keeps a route and that the latest
// address wins: a name the interner holds routes through the table
// indexed by its ID, a name it refused (the decoder gives it ID 0)
// through the string map, a second address replaces the first in
// either, a name with no route goes to Dial's default, and a route
// pinned by AddRoute is re-learned from traffic that comes from
// elsewhere.
func TestNetRoutes(t *testing.T) {
	def := netip.MustParseAddrPort("127.0.0.1:7001")
	a := netip.MustParseAddrPort("127.0.0.1:7002")
	b := netip.MustParseAddrPort("127.0.0.1:7003")
	n, err := Dial(def.String(), NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Bind("vrf", func(Msg) {}); err != nil {
		t.Fatal(err)
	}
	hear := func(name string, id uint32, from netip.AddrPort) {
		n.deliver(&Frame{Kind: KindHello, From: name, fromID: id, To: "vrf"}, from, 0)
	}
	routesTo := func(name string, want netip.AddrPort) {
		t.Helper()
		st, err := n.route(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if st.ap != want {
			t.Fatalf("%q routes to %v, want %v", name, st.ap, want)
		}
	}
	inTable := func(name string) bool {
		n.pmu.RLock()
		defer n.pmu.RUnlock()
		_, named := n.named[name]
		id := interned.lookup(name, 0)
		return !named && id != 0 && n.routes[id] != 0
	}
	inMap := func(name string) bool {
		n.pmu.RLock()
		defer n.pmu.RUnlock()
		_, named := n.named[name]
		return named && interned.lookup(name, 0) == 0
	}

	held, id := interned.get([]byte("route-held"))
	hear(held, id, a)
	routesTo(held, a)
	if !inTable(held) {
		t.Fatal("an interned name's route is not in the ID table")
	}
	hear(held, id, b)
	routesTo(held, b)

	hear("route-refused", 0, a)
	routesTo("route-refused", a)
	if !inMap("route-refused") {
		t.Fatal("a refused name's route is not in the string map")
	}
	hear("route-refused", 0, b)
	routesTo("route-refused", b)

	routesTo("route-unheard", def)
	if got := routeCount(n); got != 2 {
		t.Fatalf("%d routes, want 2", got)
	}

	if err := n.AddRoute("route-pinned", a.String()); err != nil {
		t.Fatal(err)
	}
	routesTo("route-pinned", a)
	if !inTable("route-pinned") {
		t.Fatal("AddRoute did not intern its name")
	}
	pinned, pid := interned.get([]byte("route-pinned"))
	hear(pinned, pid, b)
	routesTo(pinned, b)

	// Off the wire: the decoder's ID is what learns the route.
	raw := rawSender(t, n)
	heard := n.Stats().Received
	if _, err := raw.Write(AppendFrame(nil, &Msg{From: "route-wire", To: "vrf", Kind: KindHello, ReqID: 1})); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the wire frame", func() bool { return n.Stats().Received == heard+1 })
	routesTo("route-wire", raw.LocalAddr().(*net.UDPAddr).AddrPort())
	if !inTable("route-wire") {
		t.Fatal("a decoded name's route is not in the ID table")
	}
}

// TestNetRefusedNameRoutesBounded pins the bound on routes for names the
// interner refused: with a small name table swapped in and filled, 10 000
// names past its cap, each heard once, leave namedCap routes. A refused
// name that has a route still re-learns it from a new address, one past
// the bound falls to Dial's default route, and AddRoute still pins a
// refused name past the bound.
func TestNetRefusedNameRoutesBounded(t *testing.T) {
	saved := interned
	interned = newInternTable(16)
	defer func() { interned = saved }()

	def := netip.MustParseAddrPort("127.0.0.1:7001")
	a := netip.MustParseAddrPort("127.0.0.1:7002")
	b := netip.MustParseAddrPort("127.0.0.1:7003")
	n, err := Dial(def.String(), NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Bind("vrf", func(Msg) {}); err != nil {
		t.Fatal(err)
	}
	routesTo := func(name string, want netip.AddrPort) {
		t.Helper()
		st, err := n.route(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if st.ap != want {
			t.Fatalf("%q routes to %v, want %v", name, st.ap, want)
		}
	}
	for i := 0; i < 16; i++ {
		interned.get(fmt.Appendf(nil, "held-%02d", i))
	}
	const flood = 10_000
	for i := 0; i < flood; i++ {
		name, id := interned.get(fmt.Appendf(nil, "refused-%05d", i))
		if id != 0 {
			t.Fatalf("%q got ID %d past the cap", name, id)
		}
		n.deliver(&Frame{Kind: KindHello, From: name, To: "vrf"}, a, 0)
	}
	n.pmu.RLock()
	named := len(n.named)
	n.pmu.RUnlock()
	if named != namedCap {
		t.Fatalf("%d refused names left %d routes, want %d", flood, named, namedCap)
	}
	if s := n.Stats(); s.Received != flood {
		t.Fatalf("%d of %d frames from refused names delivered", s.Received, flood)
	}

	routesTo("refused-00000", a)
	n.deliver(&Frame{Kind: KindHello, From: "refused-00000", To: "vrf"}, b, 0)
	routesTo("refused-00000", b)
	routesTo(fmt.Sprintf("refused-%05d", flood-1), def)

	if err := n.AddRoute("refused-pinned", b.String()); err != nil {
		t.Fatal(err)
	}
	routesTo("refused-pinned", b)
}

// TestNetConcurrentSenders exercises the socket, dedup shards and
// pending map from many goroutines at once (meaningful under -race).
func TestNetConcurrentSenders(t *testing.T) {
	srv, err := Listen(NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr().String(), NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var mu sync.Mutex
	seen := map[string]int{}
	srv.Bind("vrf", func(m Msg) {
		mu.Lock()
		seen[m.From]++
		mu.Unlock()
	})
	const workers, each = 16, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			from := fmt.Sprintf("prv%03d", w)
			for i := 0; i < each; i++ {
				if err := cli.Send(Msg{From: from, To: "vrf", Kind: KindHello}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	cli.Drain(5 * time.Second)
	mu.Lock()
	defer mu.Unlock()
	total := 0
	for _, n := range seen {
		total += n
	}
	if len(seen) != workers || total != workers*each {
		t.Fatalf("delivered %d msgs from %d senders, want %d from %d", total, len(seen), workers*each, workers)
	}
}

// TestNetBatchCoalescing pins that coalescing actually happens on the
// wire: a concurrent burst toward a known-v2 peer leaves as batch
// frames (client Coalesced/BatchesSent count up, server BatchesRecv
// counts up), every message still arrives exactly once, and batch
// sub-requests dedup individually under retransmission.
func TestNetBatchCoalescing(t *testing.T) {
	srv, err := Listen(NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr().String(), NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var mu sync.Mutex
	got := map[uint64]int{}
	srv.Bind("vrf", func(m Msg) {
		mu.Lock()
		got[m.ReqID]++
		mu.Unlock()
	})

	// One send on its own, then a burst through sendFlushed.
	if err := cli.Send(Msg{From: "prv", To: "vrf", Kind: KindHello, ReqID: 1}); err != nil {
		t.Fatal(err)
	}
	cli.Drain(5 * time.Second)
	const burst = 100
	ms := make([]Msg, burst)
	for i := range ms {
		ms[i] = Msg{From: "prv", To: "vrf", Kind: KindHello, ReqID: uint64(2 + i)}
	}
	if err := sendFlushed(cli, ms...); err != nil {
		t.Fatal(err)
	}
	cli.Drain(5 * time.Second)

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == burst+1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != burst+1 {
		t.Fatalf("delivered %d/%d distinct requests", len(got), burst+1)
	}
	for id, n := range got {
		if n != 1 {
			t.Fatalf("request %d delivered %d times", id, n)
		}
	}
	cs, ss := cli.Stats(), srv.Stats()
	if cs.BatchesSent == 0 || cs.Coalesced == 0 {
		t.Fatalf("burst never coalesced: client %+v", cs)
	}
	if ss.BatchesRecv == 0 {
		t.Fatalf("server saw no batch frames: %+v", ss)
	}
	if cs.Sent >= burst+1 {
		t.Fatalf("coalescing saved no datagrams: %d sent for %d messages", cs.Sent, burst+1)
	}
}

// TestNetCoalescingUnderLoss runs a coalesced burst under injected
// loss on both sides: whole-batch retransmission must not re-deliver
// any sub-request (they dedup individually).
func TestNetCoalescingUnderLoss(t *testing.T) {
	const drop = 0.2
	fast := NetConfig{DropRate: drop, RetryBase: 2 * time.Millisecond, RetryCap: 20 * time.Millisecond}
	srvCfg := fast
	srvCfg.DropSeed = 21
	srv, err := Listen(srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cliCfg := fast
	cliCfg.DropSeed = 22
	cli, err := Dial(srv.Addr().String(), cliCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var mu sync.Mutex
	got := map[uint64]int{}
	srv.Bind("vrf", func(m Msg) {
		mu.Lock()
		got[m.ReqID]++
		mu.Unlock()
	})
	if err := cli.Send(Msg{From: "prv", To: "vrf", Kind: KindHello, ReqID: 1}); err != nil {
		t.Fatal(err)
	}
	cli.Drain(10 * time.Second)
	const burst = 150
	ms := make([]Msg, burst)
	for i := range ms {
		ms[i] = Msg{From: "prv", To: "vrf", Kind: KindHello, ReqID: uint64(2 + i)}
	}
	if err := sendFlushed(cli, ms...); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == burst+1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != burst+1 {
		t.Fatalf("delivered %d/%d distinct requests under %.0f%% loss", len(got), burst+1, drop*100)
	}
	for id, n := range got {
		if n != 1 {
			t.Fatalf("request %d delivered %d times", id, n)
		}
	}
}

// TestNetRefusesOtherWireVersions pins that one wire version exists on
// a live socket: a well-formed frame of the retired version 1 is
// counted malformed — neither delivered nor acked — and, with no
// version to discover first, a burst toward a never-heard-from peer
// coalesces from its first datagram.
func TestNetRefusesOtherWireVersions(t *testing.T) {
	srv, err := Listen(NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var n atomic.Int64
	srv.Bind("vrf", func(m Msg) { n.Add(1) })

	raw, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	v1 := AppendFrame(nil, &Msg{From: "old", To: "vrf", Kind: KindHello, ReqID: 1})
	v1[2] = 1
	if _, err := raw.Write(v1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && srv.Stats().Malformed == 0 {
		time.Sleep(2 * time.Millisecond)
	}
	if ss := srv.Stats(); ss.Malformed != 1 || ss.Received != 0 || n.Load() != 0 {
		t.Fatalf("v1 frame not refused as malformed: %+v, delivered %d", ss, n.Load())
	}
	raw.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if k, err := raw.Read(make([]byte, 64)); err == nil {
		t.Fatalf("v1 frame was answered with %d bytes", k)
	}

	cli, err := Dial(srv.Addr().String(), NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ms := make([]Msg, 30)
	for i := range ms {
		ms[i] = Msg{From: "prv", To: "vrf", Kind: KindHello, ReqID: uint64(1 + i)}
	}
	if err := sendFlushed(cli, ms...); err != nil {
		t.Fatal(err)
	}
	cli.Drain(5 * time.Second)
	for time.Now().Before(deadline) && n.Load() != int64(len(ms)) {
		time.Sleep(2 * time.Millisecond)
	}
	if n.Load() != int64(len(ms)) {
		t.Fatalf("delivered %d/%d", n.Load(), len(ms))
	}
	if cs := cli.Stats(); cs.BatchesSent == 0 {
		t.Fatalf("unprimed burst did not coalesce: %+v", cs)
	}
}

// TestNetDispatchWorkers pins the one rule for how many receive queues,
// and so dispatch workers, a Net runs: one a core, and at least four.
func TestNetDispatchWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4, 6} {
		runtime.GOMAXPROCS(procs)
		n, err := Listen(NetConfig{})
		if err != nil {
			t.Fatal(err)
		}
		n.Close()
		if got, want := len(n.queues), max(procs, 4); got != want {
			t.Errorf("GOMAXPROCS %d: %d receive queues, want %d", procs, got, want)
		}
	}
}

// TestNetQueueDropRecovery pins the backpressure contract: with a tiny
// receive queue, floods evict datagrams (QueueDrops counts them) but
// reliable retransmission still lands every request eventually.
func TestNetQueueDropRecovery(t *testing.T) {
	srv, err := Listen(NetConfig{QueueCap: 8,
		RetryBase: 2 * time.Millisecond, RetryCap: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr().String(), NetConfig{
		RetryBase: 2 * time.Millisecond, RetryCap: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var mu sync.Mutex
	got := map[uint64]bool{}
	srv.Bind("vrf", func(m Msg) {
		// A slow handler so the tiny queue actually overflows.
		time.Sleep(100 * time.Microsecond)
		mu.Lock()
		got[m.ReqID] = true
		mu.Unlock()
	})
	// Two of these overflow a batch, so each leaves in a datagram of
	// its own and 300 of them overflow the queue.
	nonce := make([]byte, batchBytes/2)
	const total = 300
	for i := 1; i <= total; i++ {
		if err := cli.Send(Msg{From: "prv", To: "vrf", Kind: KindChallenge, Nonce: nonce, ReqID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == total {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	n := len(got)
	mu.Unlock()
	if n != total {
		t.Fatalf("delivered %d/%d after queue-drop recovery (server %+v)", n, total, srv.Stats())
	}
	if s := srv.Stats(); s.QueueDrops == 0 {
		t.Fatalf("the flood never overflowed the queue: %+v", s)
	}
}
