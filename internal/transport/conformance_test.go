package transport

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"saferatt/internal/channel"
	"saferatt/internal/core"
	"saferatt/internal/sim"
)

// The conformance suite: one set of semantic checks run verbatim
// against every Transport implementation. Sim, Local and Net must agree
// on everything protocol code can observe — typed field fidelity,
// reply routing, idempotent request IDs, both bind forms, unbind
// behavior — so code written against the interface behaves identically
// in simulation, in process and on real sockets.

// mailbox is a thread-safe message sink usable as a Handler.
type mailbox struct {
	mu   sync.Mutex
	msgs []Msg
}

func (b *mailbox) handle(m Msg) {
	b.mu.Lock()
	b.msgs = append(b.msgs, m)
	b.mu.Unlock()
}

func (b *mailbox) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.msgs)
}

func (b *mailbox) get(i int) Msg {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.msgs[i]
}

// harness presents one client endpoint-space and one server
// endpoint-space plus a way to let in-flight deliveries settle.
type harness struct {
	client, server Transport
	// settle advances the world one delivery quantum: a kernel drain
	// for Sim, a real-time pause for Net, nothing for Local.
	settle func()
	close  func()
	// reliable marks a transport that cannot lose or repeat a message
	// (Local: a synchronous call), and so keeps no request-ID memory.
	reliable bool
}

// waitFor settles until cond holds or the attempt budget runs out.
func waitFor(t *testing.T, h *harness, cond func() bool) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if cond() {
			return
		}
		h.settle()
	}
	t.Fatalf("condition never held")
}

func simHarness(t *testing.T) *harness {
	t.Helper()
	k := sim.NewKernel()
	link := channel.New(channel.Config{Kernel: k, Latency: sim.Millisecond, Seed: 7})
	tr := NewSim(link)
	return &harness{
		client: tr,
		server: tr,
		settle: func() { k.Run() },
		close:  func() {},
	}
}

func localHarness(t *testing.T) *harness {
	t.Helper()
	tr := NewLocal()
	return &harness{
		client:   tr,
		server:   tr,
		settle:   func() {},
		close:    func() { tr.Close() },
		reliable: true,
	}
}

func netHarness(t *testing.T) *harness {
	t.Helper()
	srv, err := Listen(NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr().String(), NetConfig{})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	return &harness{
		client: cli,
		server: srv,
		settle: func() { time.Sleep(2 * time.Millisecond) },
		close: func() {
			cli.Close()
			srv.Close()
		},
	}
}

func runConformance(t *testing.T, mk func(t *testing.T) *harness) {
	t.Run("ChallengeFieldFidelity", func(t *testing.T) {
		h := mk(t)
		defer h.close()
		var box mailbox
		if err := h.server.Bind("prv", box.handle); err != nil {
			t.Fatal(err)
		}
		nonce := []byte{0xde, 0xad, 0xbe, 0xef, 0x01}
		if err := h.client.Send(Msg{From: "vrf", To: "prv", Kind: KindChallenge, ReqID: 42, Nonce: nonce}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, h, func() bool { return box.len() == 1 })
		got := box.get(0)
		if got.From != "vrf" || got.To != "prv" || got.Kind != KindChallenge || got.ReqID != 42 {
			t.Fatalf("envelope mangled: %+v", got)
		}
		if !bytes.Equal(got.Nonce, nonce) {
			t.Fatalf("nonce mangled: %x", got.Nonce)
		}
	})

	t.Run("ReportBundleFidelity", func(t *testing.T) {
		h := mk(t)
		defer h.close()
		var box mailbox
		if err := h.server.Bind("vrf", box.handle); err != nil {
			t.Fatal(err)
		}
		want := []*core.Report{conformanceReport(1), conformanceReport(2)}
		if err := h.client.Send(Msg{From: "prv", To: "vrf", Kind: KindCollection, ReqID: 9, Reports: want}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, h, func() bool { return box.len() == 1 })
		got := box.get(0).Reports
		if len(got) != len(want) {
			t.Fatalf("got %d reports, want %d", len(got), len(want))
		}
		for i := range want {
			assertReportEqual(t, got[i], want[i])
		}
	})

	t.Run("ReplyRouting", func(t *testing.T) {
		h := mk(t)
		defer h.close()
		var cliBox mailbox
		if err := h.client.Bind("prv7", cliBox.handle); err != nil {
			t.Fatal(err)
		}
		if err := h.server.Bind("vrf", func(m Msg) {
			h.server.Send(Msg{From: "vrf", To: m.From, Kind: KindVerdict, OK: true, Reason: "clean"})
		}); err != nil {
			t.Fatal(err)
		}
		if err := h.client.Send(Msg{From: "prv7", To: "vrf", Kind: KindHello, ReqID: 5}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, h, func() bool { return cliBox.len() == 1 })
		got := cliBox.get(0)
		if got.Kind != KindVerdict || !got.OK || got.Reason != "clean" || got.From != "vrf" {
			t.Fatalf("bad verdict: %+v", got)
		}
	})

	t.Run("DuplicateRequestSuppressed", func(t *testing.T) {
		h := mk(t)
		defer h.close()
		if h.reliable {
			t.Skip("no retransmissions to suppress: delivery is a synchronous call")
		}
		var box mailbox
		if err := h.server.Bind("vrf", box.handle); err != nil {
			t.Fatal(err)
		}
		m := Msg{From: "prv", To: "vrf", Kind: KindHello, ReqID: 77}
		if err := h.client.Send(m); err != nil {
			t.Fatal(err)
		}
		waitFor(t, h, func() bool { return box.len() == 1 })
		if err := h.client.Send(m); err != nil {
			t.Fatal(err)
		}
		// Distinct request IDs must still flow — prove delivery is
		// alive, then confirm the duplicate stayed suppressed.
		if err := h.client.Send(Msg{From: "prv", To: "vrf", Kind: KindHello, ReqID: 78}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, h, func() bool { return box.len() == 2 })
		if box.get(1).ReqID != 78 {
			t.Fatalf("duplicate ReqID delivered: %+v", box.get(1))
		}
		// Request identity is the (From, ReqID) pair: the same ID under
		// another name is another request.
		if err := h.client.Send(Msg{From: "prv2", To: "vrf", Kind: KindHello, ReqID: 77}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, h, func() bool { return box.len() == 3 })
		if got := box.get(2); got.From != "prv2" || got.ReqID != 77 {
			t.Fatalf("same ID under a second name: %+v", got)
		}
	})

	t.Run("BatchSendFidelity", func(t *testing.T) {
		// Net coalesces a burst into batch frames, Sim and Local send
		// each message in turn; either way a burst submitted at once
		// must arrive complete and intact.
		h := mk(t)
		defer h.close()
		var box mailbox
		if err := h.server.Bind("vrf", box.handle); err != nil {
			t.Fatal(err)
		}
		// Prime the route and (over Net) teach the client the server's
		// wire version, so the burst can actually coalesce.
		if err := h.client.Send(Msg{From: "prv", To: "vrf", Kind: KindHello, ReqID: 1}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, h, func() bool { return box.len() == 1 })
		const burst = 20
		ms := make([]Msg, burst)
		for i := range ms {
			ms[i] = Msg{From: "prv", To: "vrf", Kind: KindCollection, ReqID: uint64(100 + i),
				Reports: []*core.Report{conformanceReport(i%4 + 1)}}
		}
		if err := h.client.SendBatch(ms); err != nil {
			t.Fatal(err)
		}
		waitFor(t, h, func() bool { return box.len() == 1+burst })
		seen := map[uint64]bool{}
		for i := 1; i < box.len(); i++ {
			got := box.get(i)
			if got.Kind != KindCollection || got.From != "prv" || len(got.Reports) != 1 {
				t.Fatalf("batched message mangled: %+v", got)
			}
			want := ms[got.ReqID-100]
			assertReportEqual(t, got.Reports[0], want.Reports[0])
			if seen[got.ReqID] {
				t.Fatalf("request %d delivered twice", got.ReqID)
			}
			seen[got.ReqID] = true
		}
	})

	t.Run("FrameBindFidelity", func(t *testing.T) {
		// The zero-copy receive form must observe the same fields as a
		// Msg handler, and Frame.Msg must survive buffer reuse.
		h := mk(t)
		defer h.close()
		var mu sync.Mutex
		var frames []Msg
		if err := h.server.BindFrames("vrf", func(f *Frame) {
			mu.Lock()
			frames = append(frames, f.Msg())
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
		count := func() int { mu.Lock(); defer mu.Unlock(); return len(frames) }
		want := conformanceReport(2)
		if err := h.client.Send(Msg{From: "prv", To: "vrf", Kind: KindReport, ReqID: 6,
			Reports: []*core.Report{want}}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, h, func() bool { return count() == 1 })
		mu.Lock()
		f := frames[0]
		mu.Unlock()
		if f.From != "prv" || f.To != "vrf" || f.Kind != KindReport || f.ReqID != 6 {
			t.Fatalf("frame envelope mangled: %+v", f)
		}
		if len(f.Reports) != 1 {
			t.Fatalf("frame reports: %d", len(f.Reports))
		}
		assertReportEqual(t, f.Reports[0], want)
	})

	t.Run("UnbindDropsDelivery", func(t *testing.T) {
		h := mk(t)
		defer h.close()
		var box mailbox
		if err := h.server.Bind("vrf", box.handle); err != nil {
			t.Fatal(err)
		}
		// Establish the route first so Net has somewhere to send after
		// the unbind.
		if err := h.client.Send(Msg{From: "prv", To: "vrf", Kind: KindHello, ReqID: 1}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, h, func() bool { return box.len() == 1 })
		h.server.Unbind("vrf")
		if err := h.client.Send(Msg{From: "prv", To: "vrf", Kind: KindHello, ReqID: 2}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			h.settle()
		}
		if box.len() != 1 {
			t.Fatalf("delivery after unbind: %d messages", box.len())
		}
		// A nil handler of either form is refused at bind time, not found
		// on the first delivery.
		if h.server.Bind("vrf", nil) == nil || h.server.BindFrames("vrf", nil) == nil {
			t.Fatal("nil handler bound")
		}
		// A name holds one handler, of either form: BindFrames takes the
		// name over from Bind, and Unbind removes that form too.
		if err := h.server.Bind("vrf", box.handle); err != nil {
			t.Fatal(err)
		}
		var frames atomic.Int64
		if err := h.server.BindFrames("vrf", func(*Frame) { frames.Add(1) }); err != nil {
			t.Fatal(err)
		}
		if err := h.client.Send(Msg{From: "prv", To: "vrf", Kind: KindHello, ReqID: 3}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, h, func() bool { return frames.Load() == 1 })
		h.server.Unbind("vrf")
		if err := h.client.Send(Msg{From: "prv", To: "vrf", Kind: KindHello, ReqID: 4}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			h.settle()
		}
		if box.len() != 1 || frames.Load() != 1 {
			t.Fatalf("after rebinding as frames and unbinding: %d messages, %d frames", box.len(), frames.Load())
		}
	})
}

// Every transport passes the one suite. Net coalesces whatever is
// queued when its sender goes idle, so its harness covers lone data
// frames and batch frames alike.
func TestConformanceSim(t *testing.T)   { runConformance(t, simHarness) }
func TestConformanceLocal(t *testing.T) { runConformance(t, localHarness) }
func TestConformanceNet(t *testing.T)   { runConformance(t, netHarness) }

// conformanceReport builds a report exercising every wire field.
func conformanceReport(i int) *core.Report {
	return &core.Report{
		Mechanism:   core.SMARM,
		Scheme:      "HMAC-SHA-256",
		Nonce:       []byte{byte(i), 2, 3, 4},
		Round:       i,
		Counter:     uint64(1000 + i),
		Tag:         bytes.Repeat([]byte{byte(0xa0 + i)}, 32),
		TS:          sim.Time(i) * sim.Time(sim.Second),
		TE:          sim.Time(i)*sim.Time(sim.Second) + sim.Time(sim.Millisecond),
		RegionStart: 2,
		RegionCount: 6,
		Incremental: i%2 == 0,
		BlockSize:   256,
		NumBlocks:   16,
		Data: map[int][]byte{
			3: bytes.Repeat([]byte{0x33}, 256),
			5: bytes.Repeat([]byte{0x55}, 256),
		},
	}
}

func assertReportEqual(t *testing.T, got, want *core.Report) {
	t.Helper()
	if got.Mechanism != want.Mechanism || got.Scheme != want.Scheme ||
		got.Round != want.Round || got.Counter != want.Counter ||
		got.TS != want.TS || got.TE != want.TE ||
		got.RegionStart != want.RegionStart || got.RegionCount != want.RegionCount ||
		got.Incremental != want.Incremental ||
		got.BlockSize != want.BlockSize || got.NumBlocks != want.NumBlocks {
		t.Fatalf("report scalar fields differ:\n got %+v\nwant %+v", got, want)
	}
	if !bytes.Equal(got.Nonce, want.Nonce) || !bytes.Equal(got.Tag, want.Tag) {
		t.Fatalf("report nonce/tag differ")
	}
	if len(got.Data) != len(want.Data) {
		t.Fatalf("data block count %d != %d", len(got.Data), len(want.Data))
	}
	for b, w := range want.Data {
		if !bytes.Equal(got.Data[b], w) {
			t.Fatalf("data block %d differs", b)
		}
	}
}

// TestSimLinkShape pins what a Sim puts on its link: one datagram per
// Send, kind = Kind.String() (the key of Stats.Kinds and of every trace
// line), payload = the Msg itself, which is what MsgOf hands an in-path
// adversary. Link traffic that is not a Msg never reaches a Bind.
func TestSimLinkShape(t *testing.T) {
	k := sim.NewKernel()
	var seen []Msg
	link := channel.New(channel.Config{Kernel: k, Latency: sim.Millisecond, Loss: 0.3, Seed: 7,
		Adv: channel.AdversaryFunc(func(cm channel.Message) channel.Verdict {
			if m, ok := MsgOf(cm); ok && cm.Kind == m.Kind.String() && cm.From == m.From && cm.To == m.To {
				seen = append(seen, m)
			}
			return channel.Deliver
		})})
	tr := NewSim(link)
	var box mailbox
	tr.Bind("prv", box.handle)

	const n = 40
	for i := 0; i < n; i++ {
		tr.Send(Msg{From: "vrf", To: "prv", Kind: KindChallenge, Nonce: []byte{byte(i)}})
		tr.Send(Msg{From: "vrf", To: "prv", Kind: KindCollect})
	}
	link.Send("mgr", "prv", "update", []byte("not RA traffic"))
	k.Run()

	st := link.Stats()
	if len(seen) != 2*n || st.Sent != 2*n+1 {
		t.Fatalf("adversary saw %d typed datagrams, link sent %d; want %d and %d", len(seen), st.Sent, 2*n, 2*n+1)
	}
	ch, co := st.Kinds["challenge"], st.Kinds["collect"]
	if ch.Sent != n || co.Sent != n || st.Kinds["update"].Delivered != 1 {
		t.Fatalf("per-kind stats: %+v", st.Kinds)
	}
	if st.LostRandom == 0 || box.len() != ch.Delivered+co.Delivered {
		t.Fatalf("%d typed deliveries, stats %+v", box.len(), st)
	}
}
