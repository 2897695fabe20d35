package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// Acks ride the reply (DESIGN §7): a receiver acks a data or batch frame
// once it has delivered it, by queueing an ack sub-frame behind whatever
// the handler queued for the sender, and a queue of acks alone leaves
// once, unreliably. These tests pin the rule on a live Net.

// appendMixed encodes a batch of msgs followed by an ack sub-frame for
// each of acks: the shape a Net sends when replies and acks share a
// queue.
func appendMixed(reqID uint64, msgs []*Msg, acks ...uint64) []byte {
	b := AppendBatch(nil, reqID, msgs)
	binary.BigEndian.PutUint16(b[headerLen:], uint16(len(msgs)+len(acks)))
	for _, id := range acks {
		b = appendAckSub(b, id)
	}
	return b
}

// reencodeBatch encodes a decoded batch again from its sub-frames, ack
// sub-frames as acks and the rest as messages.
func reencodeBatch(f *Frame) []byte {
	b := appendBatchHeader(nil, f.ReqID, len(f.Sub))
	for i := range f.Sub {
		sf := &f.Sub[i]
		if sf.Ack {
			b = appendAckSub(b, sf.ReqID)
			continue
		}
		m := sf.Msg()
		mark := len(b)
		b = appendSub(be32(b, 0), &m)
		binary.BigEndian.PutUint32(b[mark:], uint32(len(b)-mark-perSubOverhead))
	}
	return b
}

// readFrame reads one datagram off raw within wait and decodes it into
// a fresh Frame; nil when none arrives.
func readFrame(t *testing.T, raw net.Conn, wait time.Duration) *Frame {
	t.Helper()
	buf := make([]byte, 64<<10)
	raw.SetReadDeadline(time.Now().Add(wait))
	k, err := raw.Read(buf)
	if err != nil {
		return nil
	}
	f := new(Frame)
	if err := DecodeFrameInto(buf[:k], f); err != nil {
		t.Fatalf("undecodable datagram %x: %v", buf[:k], err)
	}
	return f
}

// TestBatchAckSubFrames pins the ack sub-frame on the wire: a batch
// mixes messages and acks, a batch of acks alone carries request ID 0,
// both decode with each ack marked and re-encode byte for byte, and a
// sub-frame shorter than a request ID is still refused.
func TestBatchAckSubFrames(t *testing.T) {
	mixed := appendMixed(7, []*Msg{
		{From: "vrf", To: "p1", Kind: KindVerdict, ReqID: 8, OK: true},
		{From: "vrf", To: "p2", Kind: KindVerdict, ReqID: 9, Reason: "tag mismatch"},
	}, 41, 42)
	acks := appendMixed(0, nil, 43, 44, 45)
	for name, c := range map[string]struct {
		buf  []byte
		acks []uint64
	}{"mixed": {mixed, []uint64{41, 42}}, "acks alone": {acks, []uint64{43, 44, 45}}} {
		var f Frame
		if err := DecodeFrameInto(c.buf, &f); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got []uint64
		for i := range f.Sub {
			if f.Sub[i].Ack {
				got = append(got, f.Sub[i].ReqID)
			} else if f.Sub[i].Kind != KindVerdict {
				t.Fatalf("%s: sub %d decoded as %v", name, i, f.Sub[i].Kind)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(c.acks) {
			t.Fatalf("%s: acks %v, want %v", name, got, c.acks)
		}
		if re := reencodeBatch(&f); string(re) != string(c.buf) {
			t.Fatalf("%s: re-encode differs:\n in  %x\n out %x", name, c.buf, re)
		}
	}
	short := append([]byte(nil), acks...)
	short[batchOverhead+3] = ackSubLen - 1
	var f Frame
	if err := DecodeFrameInto(short, &f); err == nil {
		t.Fatal("a 7-byte sub-frame decoded")
	}
}

// TestDecodeMemoKeepsRefusedNamesOut pins the decoder's per-field memo:
// a batch's repeated interned name is the one interned string, with its
// ID, on every sub-frame, and a name the interner refused is refused
// again on every sub-frame, never handed on from the last.
func TestDecodeMemoKeepsRefusedNamesOut(t *testing.T) {
	saved := interned
	interned = newInternTable(1)
	defer func() { interned = saved }()
	batch := AppendBatch(nil, 1, []*Msg{
		{From: "held", To: "refused", Kind: KindHello, ReqID: 2},
		{From: "held", To: "refused", Kind: KindHello, ReqID: 3},
	})
	var f Frame
	if err := DecodeFrameInto(batch, &f); err != nil {
		t.Fatal(err)
	}
	a, b := &f.Sub[0], &f.Sub[1]
	if a.fromID == 0 || b.fromID != a.fromID || unsafe.StringData(a.From) != unsafe.StringData(b.From) {
		t.Fatalf("interned From not shared: IDs %d %d", a.fromID, b.fromID)
	}
	if a.To != "refused" || b.To != "refused" || unsafe.StringData(a.To) == unsafe.StringData(b.To) {
		t.Fatalf("refused To reused across sub-frames: %q %q", a.To, b.To)
	}
}

// TestNetAckRidesReply: a served frame whose handler replies costs the
// sender exactly one datagram back — the reply, with the ack in it,
// after it. A test socket counts the datagrams; a one-second retry base
// keeps retransmissions out of the count.
func TestNetAckRidesReply(t *testing.T) {
	// On one P the flusher runs only once the worker has delivered the
	// whole datagram and parked.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	srv, err := Listen(NetConfig{RetryBase: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.BindFrames("vrf", func(f *Frame) {
		srv.Send(Msg{From: "vrf", To: f.From, Kind: KindVerdict, OK: true})
	})
	raw := rawSender(t, srv)
	hellos := make([]*Msg, 5)
	for i := range hellos {
		hellos[i] = &Msg{From: fmt.Sprintf("p%d", i), To: "vrf", Kind: KindHello, ReqID: uint64(100 + i)}
	}
	for _, c := range []struct {
		name    string
		frame   []byte
		acked   uint64
		replies int
	}{
		{"data frame", AppendFrame(nil, &Msg{From: "p9", To: "vrf", Kind: KindHello, ReqID: 41}), 41, 1},
		{"batch", AppendBatch(nil, 42, hellos), 42, len(hellos)},
	} {
		sent := srv.Stats().Sent
		if _, err := raw.Write(c.frame); err != nil {
			t.Fatal(err)
		}
		f := readFrame(t, raw, 5*time.Second)
		if f == nil {
			t.Fatalf("%s: no reply", c.name)
		}
		if !f.Batch || f.ReqID == 0 || len(f.Sub) != c.replies+1 {
			t.Fatalf("%s: reply is batch=%v id=%d with %d sub-frames, want a reliable batch of %d replies and the ack",
				c.name, f.Batch, f.ReqID, len(f.Sub), c.replies)
		}
		for i, sf := range f.Sub[:c.replies] {
			if sf.Ack || sf.Kind != KindVerdict {
				t.Fatalf("%s: sub %d is ack=%v %v, want a verdict", c.name, i, sf.Ack, sf.Kind)
			}
		}
		if last := f.Sub[c.replies]; !last.Ack || last.ReqID != c.acked {
			t.Fatalf("%s: last sub ack=%v id=%d, want the ack of %d", c.name, last.Ack, last.ReqID, c.acked)
		}
		if extra := readFrame(t, raw, 100*time.Millisecond); extra != nil {
			t.Fatalf("%s: a second datagram came back: ack=%v batch=%v", c.name, extra.Ack, extra.Batch)
		}
		if d := srv.Stats().Sent - sent; d != 1 {
			t.Fatalf("%s: Sent moved by %d, want 1", c.name, d)
		}
		// Ack the reply, so that it is not retransmitted into the next case.
		if _, err := raw.Write(AppendAck(nil, f.ReqID)); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "the reply's ack", func() bool { return srv.pendingCount() == 0 })
	}
}

// TestNetAcksAloneLeaveOnce: a receiver with nothing to reply sends its
// acks alone — an ack frame for one, a request-ID-0 batch for more — and
// never retransmits them: no pending entry, no Sent, no Resent, however
// long it idles past its retry base.
func TestNetAcksAloneLeaveOnce(t *testing.T) {
	retry := 2 * time.Millisecond
	srv, err := Listen(NetConfig{RetryBase: retry})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Bind("vrf", func(Msg) {})
	raw := rawSender(t, srv)
	const n = 40
	for i := 1; i <= n; i++ {
		if _, err := raw.Write(AppendFrame(nil, &Msg{From: "prv", To: "vrf", Kind: KindHello, ReqID: uint64(i)})); err != nil {
			t.Fatal(err)
		}
	}
	acked := map[uint64]bool{}
	for len(acked) < n {
		f := readFrame(t, raw, 5*time.Second)
		switch {
		case f == nil:
			t.Fatalf("acks for %d of %d frames arrived", len(acked), n)
		case f.Ack:
			acked[f.ReqID] = true
		case f.Batch && f.ReqID == 0:
			for _, sf := range f.Sub {
				if !sf.Ack {
					t.Fatalf("acks-only batch carries a %v", sf.Kind)
				}
				acked[sf.ReqID] = true
			}
		default:
			t.Fatalf("unexpected datagram: batch=%v id=%d", f.Batch, f.ReqID)
		}
	}
	time.Sleep(20 * retry)
	if extra := readFrame(t, raw, 10*time.Millisecond); extra != nil {
		t.Fatalf("an ack was sent again: ack=%v batch=%v", extra.Ack, extra.Batch)
	}
	if s := srv.Stats(); s.Sent != 0 || s.Resent != 0 || s.BatchesSent != 0 {
		t.Fatalf("acks counted as data or retransmitted: %+v", s)
	}
	if p := srv.pendingCount(); p != 0 {
		t.Fatalf("%d acks pending", p)
	}
}

// TestNetRetransmitLeavesAcksOut: a reply that carried an ack is kept
// for retransmission without it — acks leave once, riding or alone —
// under the same request ID, so the peer's one ack resolves it.
func TestNetRetransmitLeavesAcksOut(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	srv, err := Listen(NetConfig{RetryBase: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.BindFrames("vrf", func(f *Frame) {
		srv.Send(Msg{From: "vrf", To: f.From, Kind: KindVerdict, OK: true})
	})
	raw := rawSender(t, srv)
	if _, err := raw.Write(AppendFrame(nil, &Msg{From: "p1", To: "vrf", Kind: KindHello, ReqID: 61})); err != nil {
		t.Fatal(err)
	}
	first := readFrame(t, raw, 5*time.Second)
	if first == nil || !first.Batch || len(first.Sub) != 2 || first.Sub[0].Ack || !first.Sub[1].Ack || first.Sub[1].ReqID != 61 {
		t.Fatalf("first transmission is not the verdict with the ack of 61 behind it: %+v", first)
	}
	again := readFrame(t, raw, 5*time.Second)
	if again == nil {
		t.Fatal("the unacked reply was not retransmitted")
	}
	if !again.Batch || again.ReqID != first.ReqID || len(again.Sub) != 1 || again.Sub[0].Ack || again.Sub[0].ReqID != first.Sub[0].ReqID {
		t.Fatalf("retransmission is batch=%v id=%d with %d sub-frames, want the verdict alone under id %d",
			again.Batch, again.ReqID, len(again.Sub), first.ReqID)
	}
	if _, err := raw.Write(AppendAck(nil, first.ReqID)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the reply's ack", func() bool { return srv.pendingCount() == 0 })
}

// TestNetAckRidesReplyUnderLoss is I7 with the ack in the reply: under
// 20% injected loss on both sides of an echo, every request and every
// reply is delivered exactly once, and every pending entry on either
// side resolves — also where the lost datagram was a reply carrying an
// ack: the server retransmits the reply without it, and the client's
// own retransmission of the request is acked again.
func TestNetAckRidesReplyUnderLoss(t *testing.T) {
	const drop, total = 0.2, 200
	cfg := func(seed uint64) NetConfig {
		return NetConfig{DropRate: drop, DropSeed: seed, RetryBase: 2 * time.Millisecond, RetryCap: 20 * time.Millisecond}
	}
	srv, cli := netPair(t, cfg(5), cfg(6))
	defer srv.Close()
	defer cli.Close()
	var mu sync.Mutex
	reqs, replies := map[uint64]int{}, map[string]int{}
	srv.BindFrames("vrf", func(f *Frame) {
		mu.Lock()
		reqs[f.ReqID]++
		mu.Unlock()
		srv.Send(Msg{From: "vrf", To: f.From, Kind: KindVerdict, Reason: fmt.Sprint(f.ReqID)})
	})
	cli.Bind("prv", func(m Msg) {
		mu.Lock()
		replies[m.Reason]++
		mu.Unlock()
	})
	// One request in flight at a time, so that every reply leaves in a
	// datagram of its own, with its request's ack in it.
	for i := 1; i <= total; i++ {
		if err := cli.Send(Msg{From: "prv", To: "vrf", Kind: KindHello, ReqID: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "the reply", func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(replies) == i
		})
	}
	cli.Drain(5 * time.Second)
	srv.Drain(5 * time.Second)
	mu.Lock()
	defer mu.Unlock()
	for id, k := range reqs {
		if k != 1 {
			t.Fatalf("request %d delivered %d times", id, k)
		}
	}
	for id, k := range replies {
		if k != 1 {
			t.Fatalf("reply to %s delivered %d times", id, k)
		}
	}
	if len(reqs) != total {
		t.Fatalf("%d of %d requests delivered", len(reqs), total)
	}
	for side, n := range map[string]*Net{"client": cli, "server": srv} {
		if p := n.pendingCount(); p != 0 {
			t.Fatalf("%s: %d sends still pending", side, p)
		}
		if s := n.Stats(); s.Expired != 0 {
			t.Fatalf("%s: %d sends expired: %+v", side, s.Expired, s)
		}
	}
	if s := srv.Stats(); s.Injected == 0 || s.Resent == 0 {
		t.Fatalf("no reply was lost and retransmitted: %+v", s)
	}
}

// TestNetAckPathAllocs pins the ack path's allocations: queueing acks
// on a warmed peer queue and sending them alone allocates nothing. The
// peer is a socket that never answers, so nothing else in the process
// runs meanwhile.
func TestNetAckPathAllocs(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	n, err := Dial(sink.LocalAddr().String(), NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	peer := n.def
	from := peer.ap
	var id uint64
	ackSome := func() {
		for k := 0; k < 3; k++ {
			id++
			peer = n.ack(peer, id, from)
		}
		peer.cmu.Lock()
		n.flushLocked(peer)
		peer.cmu.Unlock()
	}
	ackSome() // warm the queue, the dirty list and the pool
	if a := testing.AllocsPerRun(200, ackSome); a != 0 {
		t.Fatalf("acking allocates %.1f allocs/op, want 0", a)
	}
	if s := n.Stats(); s.Sent != 0 || n.pendingCount() != 0 {
		t.Fatalf("acks sent as data: %+v, %d pending", s, n.pendingCount())
	}
}
