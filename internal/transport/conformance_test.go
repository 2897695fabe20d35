package transport

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"saferatt/internal/channel"
	"saferatt/internal/core"
	"saferatt/internal/sim"
)

// The conformance suite: one set of semantic checks run verbatim
// against both Transport implementations. Sim and Net must agree on
// everything protocol code can observe — typed field fidelity,
// reply routing, idempotent request IDs, unbind behavior — so code
// written against the interface behaves identically in simulation and
// on real sockets.

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
	// for Sim, a real-time pause for Net.
	settle func()
	close  func()
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
		// Both transports implement BatchSender (Net coalesces into
		// batch frames once the peer is known v2; Sim loops Send), so a
		// burst submitted at once must arrive complete and intact.
		h := mk(t)
		defer h.close()
		bs, ok := h.client.(BatchSender)
		if !ok {
			t.Fatalf("transport does not implement BatchSender")
		}
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
		if err := bs.SendBatch(ms); err != nil {
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
		// Msg handler, and Frame.Copy must survive buffer reuse.
		h := mk(t)
		defer h.close()
		fb, ok := h.server.(FrameBinder)
		if !ok {
			t.Fatalf("transport does not implement FrameBinder")
		}
		var mu sync.Mutex
		var frames []*Frame
		if err := fb.BindFrames("vrf", func(f *Frame) {
			mu.Lock()
			frames = append(frames, f.Copy())
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
		assertReportEqual(t, &f.Reports[0], want)
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
	})
}

// netHarnessPerReport disables send coalescing on both ends: every
// message travels as its own data frame, the wire-v1-compatible shape.
func netHarnessPerReport(t *testing.T) *harness {
	t.Helper()
	cfg := NetConfig{BatchBytes: -1}
	srv, err := Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr().String(), cfg)
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

// The conformance matrix: {per-report, batch-frame} x {Sim, Net}. Sim
// has no datagram coalescing, so its one harness covers both modes;
// Net runs once with coalescing on (the default — bursts travel as
// batch frames) and once forced to per-report data frames.
func TestConformanceSim(t *testing.T)          { runConformance(t, simHarness) }
func TestConformanceNet(t *testing.T)          { runConformance(t, netHarness) }
func TestConformanceNetPerReport(t *testing.T) { runConformance(t, netHarnessPerReport) }

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

// TestSimSharesLegacyPayloads pins the bridge property: a typed Send
// with ReqID 0 travels as the legacy payload shape, so pre-transport
// receivers (core provers, the verifier) understand it — and legacy
// link.Send traffic surfaces as typed messages on a Bind.
func TestSimSharesLegacyPayloads(t *testing.T) {
	k := sim.NewKernel()
	link := channel.New(channel.Config{Kernel: k, Latency: sim.Millisecond, Seed: 7})
	tr := NewSim(link)

	var rawKind string
	var rawPayload any
	link.Connect("legacy", func(m channel.Message) { rawKind, rawPayload = m.Kind, m.Payload })
	nonce := []byte{1, 2, 3}
	tr.Send(Msg{From: "vrf", To: "legacy", Kind: KindChallenge, Nonce: nonce})
	k.Run()
	if rawKind != core.MsgChallenge {
		t.Fatalf("legacy kind %q", rawKind)
	}
	if got, ok := rawPayload.([]byte); !ok || !bytes.Equal(got, nonce) {
		t.Fatalf("legacy payload %T %v", rawPayload, rawPayload)
	}

	var typed mailbox
	tr.Bind("typed", typed.handle)
	reports := []*core.Report{conformanceReport(3)}
	link.Send("prv", "typed", core.MsgReport, reports)
	k.Run()
	if typed.len() != 1 {
		t.Fatalf("typed deliveries: %d", typed.len())
	}
	if got := typed.get(0); got.Kind != KindReport || len(got.Reports) != 1 || got.Reports[0] != reports[0] {
		t.Fatalf("legacy payload not surfaced as typed message: %+v", got)
	}
}
