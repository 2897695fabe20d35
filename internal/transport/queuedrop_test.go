package transport

import (
	"net"
	"testing"
	"time"
)

// TestNetQueueDropExactAccounting forces ring-queue overflow with a
// deliberately blocked handler and pins the accounting contract:
// every datagram that reached the socket is either delivered exactly
// once or counted in QueueDrops exactly once — the two always sum to
// the datagrams sent, with no double counting and no silent loss.
// Frames are sent raw with ReqID 0, which bypasses acks, retries, and
// dedup, so the ring is the only thing between the socket and the
// handler. Afterwards the handler is unblocked and a normal reliable
// client verifies the transport recovers fully.
func TestNetQueueDropExactAccounting(t *testing.T) {
	const queueCap = 8
	const sent = 40
	srv, err := Listen(NetConfig{RecvLoops: 1, QueueCap: queueCap})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	gate := make(chan struct{})
	if err := srv.Bind("sink", func(m Msg) { <-gate }); err != nil {
		t.Fatal(err)
	}

	raw, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	frame := AppendFrame(nil, &Msg{From: "raw-flooder", To: "sink", Kind: KindHello})
	for i := 0; i < sent; i++ {
		if _, err := raw.Write(frame); err != nil {
			t.Fatal(err)
		}
	}

	// One source address fills one ring. With its worker parked in the
	// handler, the ring can hold
	// at most queueCap frames plus the one in flight: at least
	// sent-1-queueCap datagrams must be evicted-and-counted.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if d := srv.Stats().QueueDrops; d >= sent-1-queueCap {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drops never reached %d: stats %+v", sent-1-queueCap, srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	// Unblock the worker and let it drain what the ring retained.
	close(gate)
	for {
		s := srv.Stats()
		if s.Received+s.QueueDrops == sent {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("conservation never held: received %d + drops %d != sent %d",
				s.Received, s.QueueDrops, sent)
		}
		time.Sleep(time.Millisecond)
	}
	s := srv.Stats()
	// Exactness: delivered + dropped == sent (each drop counted once,
	// none missed), and the drop count sits in the only window the
	// ring geometry allows — everything except the in-flight frame
	// and the ring's capacity, give or take whether the worker popped
	// a frame before the flood filled the ring.
	if s.QueueDrops < sent-1-queueCap || s.QueueDrops > sent-queueCap {
		t.Fatalf("QueueDrops = %d, want in [%d, %d] (received %d)",
			s.QueueDrops, sent-1-queueCap, sent-queueCap, s.Received)
	}
	if s.Dups != 0 {
		t.Fatalf("unreliable ReqID-0 frames were deduped: %+v", s)
	}

	// Recovery: a normal client's reliable sends all get through now
	// that the handler is live again.
	cli, err := Dial(srv.Addr().String(), NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const reliable = 100
	for i := 0; i < reliable; i++ {
		if err := cli.Send(Msg{From: "cli", To: "sink", Kind: KindHello}); err != nil {
			t.Fatal(err)
		}
	}
	cli.Drain(5 * time.Second)
	after := srv.Stats()
	if got := after.Received - s.Received; got != reliable {
		t.Fatalf("recovered fleet delivered %d/%d reliable messages (dups %d)", got, reliable, after.Dups)
	}
	if cs := cli.Stats(); cs.Expired != 0 {
		t.Fatalf("reliable sends expired after recovery: %+v", cs)
	}
}
