package transport

import (
	"bytes"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The flush-on-idle rule (DESIGN §7): a queued send waits only for
// work its sender already has in hand, and leaves when that sender
// goes idle. These tests pin the rule from both sides — a burst still
// shares datagrams, and nothing on a request path waits for a clock.

func netPair(t testing.TB, srvCfg, cliCfg NetConfig) (srv, cli *Net) {
	t.Helper()
	srv, err := Listen(srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	cli, err = Dial(srv.Addr().String(), cliCfg)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	return srv, cli
}

func waitUntil(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestNetBurstLeavesTogether: on one P the flusher cannot run until
// the sender parks, so twenty Sends from one goroutine leave in the
// datagrams the byte budget dictates — with no timer anywhere in the
// transport to have held them.
func TestNetBurstLeavesTogether(t *testing.T) {
	src, err := os.ReadFile("net.go")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(src, []byte("time.AfterFunc")) {
		t.Fatal("net.go schedules a timer; coalescing must not wait on a clock")
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	srv, cli := netPair(t, NetConfig{}, NetConfig{})
	defer srv.Close()
	defer cli.Close()
	var got atomic.Int64
	srv.Bind("vrf", func(Msg) { got.Add(1) })

	const burst = 20
	nonce := make([]byte, 100)
	queued := 0
	for i := 0; i < burst; i++ {
		m := Msg{From: "prv", To: "vrf", Kind: KindChallenge, Nonce: nonce, ReqID: uint64(1 + i)}
		queued += perSubOverhead + len(appendSub(nil, &m))
		if err := cli.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "the burst", func() bool { return got.Load() == burst })
	budget := cli.cfg.BatchBytes
	if max := uint64((queued+budget-1)/budget + 1); cli.Stats().Sent > max {
		t.Fatalf("%d messages (%d queued bytes, budget %d) left in %d datagrams, want at most %d",
			burst, queued, budget, cli.Stats().Sent, max)
	}
}

// TestNetOrderAcrossOversized: a message too large for any batch used
// to be written straight to the socket, overtaking smaller messages
// still queued for the same peer. Everything for one destination now
// leaves in submission order.
func TestNetOrderAcrossOversized(t *testing.T) {
	// One receive loop: two could swap adjacent datagrams between the
	// socket and the ring, which is not the sender's order to keep.
	srv, cli := netPair(t, NetConfig{RecvLoops: 1}, NetConfig{})
	defer srv.Close()
	defer cli.Close()
	var mu sync.Mutex
	var order []uint64
	srv.Bind("vrf", func(m Msg) {
		mu.Lock()
		order = append(order, m.ReqID)
		mu.Unlock()
	})
	big := make([]byte, 2*cli.cfg.BatchBytes)
	var want []uint64
	for i := 1; i <= 40; i++ {
		m := Msg{From: "prv", To: "vrf", Kind: KindChallenge, Nonce: big[:8], ReqID: uint64(i)}
		if i%4 == 0 {
			m.Nonce = big
		}
		if err := cli.Send(m); err != nil {
			t.Fatal(err)
		}
		want = append(want, m.ReqID)
	}
	waitUntil(t, "all forty", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == len(want)
	})
	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(order, want) {
		t.Fatalf("arrival order %v, sent %v", order, want)
	}
}

// pingPong runs pairs concurrent request/response loops of trips round
// trips each through one client socket and one server socket, and
// returns every round-trip time. With more than one exchange in flight
// toward the same peer, every hop used to sit out the coalescing timer.
func pingPong(t testing.TB, pairs, trips int) []time.Duration {
	srv, cli := netPair(t, NetConfig{}, NetConfig{})
	defer srv.Close()
	defer cli.Close()
	if err := srv.BindFrames("srv", func(f *Frame) {
		srv.Send(Msg{From: "srv", To: f.From, Kind: KindVerdict, OK: true})
	}); err != nil {
		t.Fatal(err)
	}
	rtts := make([]time.Duration, pairs*trips)
	var wg sync.WaitGroup
	for p := 0; p < pairs; p++ {
		name := "cl" + string(rune('a'+p))
		pong := make(chan struct{}, 1)
		if err := cli.BindFrames(name, func(*Frame) { pong <- struct{}{} }); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(out []time.Duration) {
			defer wg.Done()
			for i := range out {
				start := time.Now()
				if err := cli.Send(Msg{From: name, To: "srv", Kind: KindHello}); err != nil {
					t.Error(err)
					return
				}
				select {
				case <-pong:
					out[i] = time.Since(start)
				case <-time.After(5 * time.Second):
					t.Errorf("%s: no reply to trip %d", name, i)
					return
				}
			}
		}(rtts[p*trips : (p+1)*trips])
	}
	wg.Wait()
	slices.Sort(rtts)
	return rtts
}

// TestNetLoadedRoundTrip: eight exchanges in flight through one socket
// pair — the case the old lone-round-trip escape hatch never covered —
// keep a median round trip far below one coalescing timer.
func TestNetLoadedRoundTrip(t *testing.T) {
	rtts := pingPong(t, 8, 200)
	if p50 := rtts[len(rtts)/2]; p50 > 500*time.Microsecond {
		t.Fatalf("p50 round trip with 8 in flight = %v, want under 500µs (p99 %v)", p50, rtts[len(rtts)*99/100])
	}
}

// TestNetDrainCloseDeliverQueued: Drain and Close each send what is
// still sitting in a coalescing queue, and Close joins the flusher
// with every other goroutine the transport started.
func TestNetDrainCloseDeliverQueued(t *testing.T) {
	// One P, so the flusher provably has not run when Drain and Close
	// are called: the sends are still queued.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	baseline := runtime.NumGoroutine()
	srv, cli := netPair(t, NetConfig{}, NetConfig{})
	var got atomic.Int64
	srv.Bind("vrf", func(Msg) { got.Add(1) })
	send := func(k int) {
		for i := 0; i < k; i++ {
			if err := cli.Send(Msg{From: "prv", To: "vrf", Kind: KindHello}); err != nil {
				t.Fatal(err)
			}
		}
	}
	send(5)
	cli.Drain(5 * time.Second)
	if got.Load() != 5 || cli.pendingCount() != 0 {
		t.Fatalf("after Drain: delivered %d/5, %d pending", got.Load(), cli.pendingCount())
	}
	send(7)
	cli.Close()
	if got.Load() != 12 {
		t.Fatalf("after Close: delivered %d/12", got.Load())
	}
	srv.Close()
	waitUntil(t, "the transports' goroutines to exit", func() bool { return runtime.NumGoroutine() <= baseline })
}

// TestNetCloseRacesSenders closes a transport under concurrent Send
// and SendBatch callers (meaningful under -race): senders, the
// flusher and Close's own flush share the per-peer queues and the
// dirty list. Nothing is delivered twice, and Close returns.
func TestNetCloseRacesSenders(t *testing.T) {
	srv, cli := netPair(t, NetConfig{}, NetConfig{})
	defer srv.Close()
	var mu sync.Mutex
	seen := map[uint64]int{}
	srv.Bind("vrf", func(m Msg) {
		mu.Lock()
		seen[m.ReqID]++
		mu.Unlock()
	})
	// Senders keep at most 64 messages undelivered between them and
	// sleep rather than spin, so the flood exercises the locks without
	// starving the netpoller of a P (late acks mean retransmissions).
	var next atomic.Uint64
	delivered := func() uint64 {
		mu.Lock()
		defer mu.Unlock()
		return uint64(len(seen))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(from string, batch bool) {
			defer wg.Done()
			for {
				for next.Load() > delivered()+64 && !cli.closing.Load() {
					time.Sleep(20 * time.Microsecond)
				}
				var err error
				if batch {
					err = cli.SendBatch([]Msg{
						{From: from, To: "vrf", Kind: KindHello, ReqID: next.Add(1)},
						{From: from, To: "vrf", Kind: KindHello, ReqID: next.Add(1)},
					})
				} else {
					err = cli.Send(Msg{From: from, To: "vrf", Kind: KindHello, ReqID: next.Add(1)})
				}
				if err != nil {
					return // closed
				}
			}
		}("prv"+string(rune('0'+w)), w%2 == 0)
	}
	waitUntil(t, "traffic to flow", func() bool { return delivered() >= 2000 })
	cli.Close()
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for id, k := range seen {
		if k != 1 {
			t.Fatalf("request %d delivered %d times", id, k)
		}
	}
}
