package rattd

import (
	"bytes"
	"fmt"
	"testing"

	"saferatt/internal/transport"
)

// BenchmarkShard_Route prices the client-side routing decision: one
// rendezvous hash per prover per send, so it must stay in the tens of
// nanoseconds.
func BenchmarkShard_Route(b *testing.B) {
	names := make([]string, 1024)
	for i := range names {
		names[i] = fmt.Sprintf("prv%05d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += ShardFor(names[i&1023], 8)
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkShard_CheckpointRoundTrip prices serializing and reparsing
// a shard's fleet state (1000 enrolled provers, a few counters each)
// — the periodic cost a -checkpoint'ed daemon pays.
func BenchmarkShard_CheckpointRoundTrip(b *testing.B) {
	cp := &Checkpoint{
		Lease:    EpochLease{Shard: 2, Epoch: 9, Lo: 1 << 20, Hi: 1<<20 + 1<<16},
		NonceCtr: 1<<20 + 500,
		Erasmus:  map[string]DedupWindow{},
		Seed:     map[string]uint64{},
	}
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("prv%05d", i)
		var w DedupWindow
		for c := uint64(1); c <= 4; c++ {
			w.Add(c)
		}
		cp.Erasmus[name] = w
		cp.Seed[name] = 7
	}
	b.ReportAllocs()
	b.ResetTimer()
	var buf bytes.Buffer
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := cp.EncodeTo(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeCheckpoint(buf.Bytes()); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

// BenchmarkShard_TierThroughput runs b.N provers (SMART round + a
// 1-deep collection each) through a 4-shard tier over real loopback
// sockets; ns/op is the full per-prover protocol cost including
// routing, transport, and verification.
func BenchmarkShard_TierThroughput(b *testing.B) {
	image := GoldenImage(7, testMem, testBlock)
	var trs []transport.Transport
	var addrs []string
	for i := 0; i < 4; i++ {
		l, err := transport.Listen(transport.NetConfig{})
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		trs = append(trs, l)
		addrs = append(addrs, l.Addr().String())
	}
	tier, err := ServeTier(trs, TierConfig{Base: Config{Ref: image, BlockSize: testBlock}})
	if err != nil {
		b.Fatal(err)
	}
	defer tier.Close()
	b.ReportAllocs()
	b.ResetTimer()
	res, err := RunFleet(FleetConfig{
		Addrs:       addrs,
		Provers:     b.N,
		Concurrency: 256,
		Image:       image,
		BlockSize:   testBlock,
		History:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if n := res.SMARTFail + res.CollectFail; n != 0 {
		b.Fatalf("%d failures across %d provers", n, b.N)
	}
}
