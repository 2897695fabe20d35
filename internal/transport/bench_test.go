package transport

import (
	"sync/atomic"
	"testing"
	"time"

	"saferatt/internal/channel"
	"saferatt/internal/core"
	"saferatt/internal/sim"
)

// BenchmarkTransport_Codec measures one encode+decode of a report
// frame — the per-datagram CPU cost on the Net hot path.
func BenchmarkTransport_Codec(b *testing.B) {
	m := &Msg{From: "prv0042", To: "vrf", Kind: KindReport, ReqID: 7,
		Reports: []*core.Report{conformanceReport(1)}}
	frame := AppendFrame(nil, m)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	buf := make([]byte, 0, len(frame))
	for i := 0; i < b.N; i++ {
		buf = AppendFrame(buf[:0], m)
		if _, _, err := DecodeFrame(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransport_DecodeInto measures the zero-copy receive-path
// decode of a report frame into a warmed Frame. The allocation gate in
// CI pins this at 0 allocs/op — the property that keeps the receive
// loops GC-silent at fleet scale.
func BenchmarkTransport_DecodeInto(b *testing.B) {
	m := &Msg{From: "prv0042", To: "vrf", Kind: KindReport, ReqID: 7,
		Reports: []*core.Report{plainReport(1)}}
	frame := AppendFrame(nil, m)
	b.SetBytes(int64(len(frame)))
	var f Frame
	if err := DecodeFrameInto(frame, &f); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeFrameInto(frame, &f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransport_CodecBatch measures encode+zero-copy decode of a
// 32-report batch frame — the amortized per-datagram cost when
// coalescing is doing its job.
func BenchmarkTransport_CodecBatch(b *testing.B) {
	msgs := make([]*Msg, 32)
	for i := range msgs {
		msgs[i] = &Msg{From: "prv0042", To: "vrf", Kind: KindReport, ReqID: uint64(i + 1),
			Reports: []*core.Report{plainReport(i%4 + 1)}}
	}
	frame := AppendBatch(nil, 99, msgs)
	b.SetBytes(int64(len(frame)))
	var f Frame
	if err := DecodeFrameInto(frame, &f); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	buf := make([]byte, 0, len(frame))
	for i := 0; i < b.N; i++ {
		buf = AppendBatch(buf[:0], 99, msgs)
		if err := DecodeFrameInto(buf, &f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransport_SimSend measures one send through Sim, kernel
// drain included — what every simulated protocol message costs on top
// of the measurement it carries.
func BenchmarkTransport_SimSend(b *testing.B) {
	k := sim.NewKernel()
	link := channel.New(channel.Config{Kernel: k, Latency: sim.Millisecond, Seed: 1})
	tr := NewSim(link)
	n := 0
	tr.Bind("vrf", func(Msg) { n++ })
	rep := []*core.Report{conformanceReport(2)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Send(Msg{From: "prv", To: "vrf", Kind: KindReport, Reports: rep})
		k.Run()
	}
	if n != b.N {
		b.Fatalf("delivered %d/%d", n, b.N)
	}
}

// BenchmarkTransport_NetRoundTrip measures a reliable loopback
// request/ack round trip: send a report, wait for delivery.
func BenchmarkTransport_NetRoundTrip(b *testing.B) {
	srv, err := Listen(NetConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr().String(), NetConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	delivered := make(chan struct{}, 1)
	srv.Bind("vrf", func(Msg) { delivered <- struct{}{} })
	rep := []*core.Report{conformanceReport(3)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cli.Send(Msg{From: "prv", To: "vrf", Kind: KindReport, Reports: rep}); err != nil {
			b.Fatal(err)
		}
		<-delivered
	}
}

// BenchmarkTransport_NetRoundTripLoaded measures the same round trip
// with eight exchanges in flight through one socket pair — the path a
// daemon's hello/challenge/report/verdict hops take under any load,
// which the lone round trip above never exercises. ns/op is wall time
// over all trips; p50-us is the median of the individual round trips.
func BenchmarkTransport_NetRoundTripLoaded(b *testing.B) {
	const pairs = 8
	rtts := pingPong(b, pairs, (b.N+pairs-1)/pairs)
	b.ReportMetric(float64(rtts[len(rtts)/2].Nanoseconds())/1e3, "p50-us")
}

// BenchmarkTransport_NetThroughput measures sustained one-way reliable
// message throughput with many requests in flight.
func BenchmarkTransport_NetThroughput(b *testing.B) {
	srv, err := Listen(NetConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr().String(), NetConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	var n atomic.Int64
	srv.Bind("vrf", func(Msg) { n.Add(1) })
	// Prime: learn the route and the server's wire version, so the
	// measured flood reflects steady state rather than cold start.
	if err := cli.Send(Msg{From: "prv", To: "vrf", Kind: KindHello}); err != nil {
		b.Fatal(err)
	}
	cli.Drain(5 * time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cli.Send(Msg{From: "prv", To: "vrf", Kind: KindHello}); err != nil {
			b.Fatal(err)
		}
	}
	// Count-based completion rather than a WaitGroup: the sender
	// retries until everything lands, and a retransmission delivered
	// again past the dedup horizon must not panic the benchmark.
	for n.Load() < int64(b.N)+1 {
		time.Sleep(50 * time.Microsecond)
	}
}

// BenchmarkTransport_LocalSendFleet measures one Local delivery among
// 200 000 bound names — inproc_mixed's fleet — sent to in a seeded
// shuffled order, so that the order the names were bound in cannot
// help the probe. Each send names its peer with the string it was
// bound under, as a daemon replying to an ingested name does.
func BenchmarkTransport_LocalSendFleet(b *testing.B) {
	names := fleetNames(200_000)
	l := NewLocal()
	n := 0
	for _, name := range names {
		l.Bind(name, func(Msg) { n++ })
	}
	order := shuffled(len(names), 1)
	m := Msg{From: "vrf", Kind: KindVerdict, OK: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.To = names[order[i%len(order)]]
		l.Send(m)
	}
	if n != b.N {
		b.Fatalf("delivered %d/%d", n, b.N)
	}
}
