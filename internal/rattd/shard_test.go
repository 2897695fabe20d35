package rattd

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"saferatt/internal/channel"
	"saferatt/internal/core"
	"saferatt/internal/sim"
	"saferatt/internal/transport"
	"saferatt/internal/verifier"
)

// TestShardForProperties pins the hash's contract: deterministic,
// in-range, balanced, and minimally disruptive when n grows.
func TestShardForProperties(t *testing.T) {
	const n = 8
	const fleet = 40000
	counts := make([]int, n)
	moved := 0
	for i := 0; i < fleet; i++ {
		name := fmt.Sprintf("prv%05d", i)
		s := ShardFor(name, n)
		if s < 0 || s >= n {
			t.Fatalf("ShardFor(%q, %d) = %d out of range", name, n, s)
		}
		if again := ShardFor(name, n); again != s {
			t.Fatalf("ShardFor(%q, %d) unstable: %d then %d", name, n, s, again)
		}
		counts[s]++
		if ShardFor(name, n+1) != s {
			moved++
		}
	}
	min, max := fleet, 0
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if ratio := float64(max) / float64(min); ratio > 1.3 {
		t.Fatalf("rendezvous balance %v gives max/min %.3f > 1.3", counts, ratio)
	}
	// Rendezvous hashing moves ~1/(n+1) of keys when a shard joins;
	// allow double that before calling it broken.
	if lim := 2 * fleet / (n + 1); moved > lim {
		t.Fatalf("growing %d->%d shards moved %d/%d provers (limit %d)", n, n+1, moved, fleet, lim)
	}
	if ShardFor("anything", 1) != 0 || ShardFor("anything", 0) != 0 {
		t.Fatal("degenerate widths must map to shard 0")
	}
}

// TestServerChallengeNoncesUnique drives two Servers, each on its own
// Sim link, and checks that no challenge nonce is ever minted twice
// across them: each draws its challenge key for itself.
func TestServerChallengeNoncesUnique(t *testing.T) {
	k := sim.NewKernel()
	nonces := map[string]int{} // nonce -> the server that minted it
	recv := 0
	var trs [2]*transport.Sim
	for i := range trs {
		link := channel.New(channel.Config{Kernel: k, Latency: sim.Millisecond, Seed: 5 + uint64(i)})
		trs[i] = transport.NewSim(link)
		srv, err := Serve(trs[i], Config{Ref: GoldenImage(7, testMem, testBlock), BlockSize: testBlock})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if err := trs[i].Bind("prv-n", func(m transport.Msg) {
			if m.Kind != transport.KindChallenge {
				return
			}
			if prev, dup := nonces[string(m.Nonce)]; dup {
				t.Errorf("challenge nonce reused (first minted by server %d, again by server %d)", prev, i)
			}
			nonces[string(m.Nonce)] = i
			recv++
		}); err != nil {
			t.Fatal(err)
		}
	}
	const hellosPerServer = 50
	for n := 0; n < hellosPerServer; n++ {
		for _, tr := range trs {
			if err := tr.Send(transport.Msg{From: "prv-n", To: endpoint, Kind: transport.KindHello}); err != nil {
				t.Fatal(err)
			}
			k.Run()
		}
	}
	if recv != 2*hellosPerServer {
		t.Fatalf("got %d challenges, want %d", recv, 2*hellosPerServer)
	}
}

// TestCheckpointCodec pins the canonical encoding and the strict
// decoder: round-trips are exact, equal state gives equal bytes, and
// malformed inputs fail instead of misparsing.
func TestCheckpointCodec(t *testing.T) {
	cp := &Checkpoint{
		Lease:    EpochLease{Shard: 3, Epoch: 17, Lo: 65537, Hi: 131073},
		NonceCtr: 65600,
		Erasmus: map[string]DedupWindow{
			"prv00001": windowOf(1, 2, 3),
			"prv00007": windowOf(5, 9),
			"zz-last":  {},
		},
		Seed: map[string]uint64{"prv00001": 12, "seed-only": 4},
	}
	enc := encodeCP(t, cp)
	if !bytes.Equal(enc, encodeCP(t, cp)) {
		t.Fatal("encoding is not deterministic")
	}
	dec, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cp, dec) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", dec, cp)
	}
	for i := 1; i < len(enc); i++ {
		if _, err := DecodeCheckpoint(enc[:i]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", i)
		}
	}
	if _, err := DecodeCheckpoint(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 'X'
	if _, err := DecodeCheckpoint(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte(nil), enc...)
	bad[2] = CheckpointVersion + 1
	if _, err := DecodeCheckpoint(bad); err == nil {
		t.Fatal("future version accepted")
	}
	bad = append([]byte(nil), enc...)
	bad[3] |= 0x80
	if _, err := DecodeCheckpoint(bad); err == nil {
		t.Fatal("unknown flags accepted")
	}
	// The trailing record count is a torn-write detector: a count that
	// disagrees with the stream must error.
	lying := append([]byte(nil), enc...)
	lying[len(lying)-1] ^= 1
	if _, err := DecodeCheckpoint(lying); err == nil {
		t.Fatal("lying record count accepted")
	}

	// Delta headers (chain id, sequence, delta flag) round-trip too.
	dcp := &Checkpoint{
		Lease:    cp.Lease,
		NonceCtr: 70000,
		Erasmus:  map[string]DedupWindow{"prv00007": windowOf(11)},
		Seed:     map[string]uint64{},
		Delta:    true,
		ChainID:  9,
		Seq:      3,
	}
	ddec, err := DecodeCheckpoint(encodeCP(t, dcp))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dcp, ddec) {
		t.Fatalf("delta round trip mismatch:\n got %+v\nwant %+v", ddec, dcp)
	}
}

// encodeCP encodes via the streaming encoder into memory.
func encodeCP(t testing.TB, cp *Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := cp.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServerRestartMidEpoch is the crash-recovery acceptance test:
// populate a Server on a real socket, checkpoint it mid-epoch, kill it
// (Close, then its socket), bring a fresh one up on the same address
// from the checkpoint — what `rattd -restore` does — and verify
// enrolled provers keep verifying without re-enrollment while
// previously-seen reports still read as replays, and that no challenge
// of the dead incarnation or of another live Server redeems there.
func TestServerRestartMidEpoch(t *testing.T) {
	image := GoldenImage(7, testMem, testBlock)
	cfg := Config{Ref: image, BlockSize: testBlock}
	lis, err := transport.Listen(transport.NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	srv, err := Serve(lis, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A second live Server on its own socket: both answer as "rattd", so
	// the prover reaches it through a client transport of its own.
	otherLis, err := transport.Listen(transport.NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer otherLis.Close()
	other, err := Serve(otherLis, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()

	const name = "prv00001"
	prv, err := NewProver(name, DefaultKey, image, testBlock)
	if err != nil {
		t.Fatal(err)
	}
	inbox := make(chan transport.Msg, 32)
	dial := func(addr string) *transport.Net {
		t.Helper()
		cli, err := transport.Dial(addr, transport.NetConfig{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Close() })
		if err := cli.Bind(name, func(m transport.Msg) { inbox <- m }); err != nil {
			t.Fatal(err)
		}
		return cli
	}
	cli, otherCli := dial(lis.Addr().String()), dial(otherLis.Addr().String())
	await := func(kind transport.Kind) transport.Msg {
		t.Helper()
		for {
			m := <-inbox
			if m.Kind == kind {
				return m
			}
		}
	}
	send := func(m transport.Msg) {
		t.Helper()
		m.From, m.To = name, endpoint
		if err := cli.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	collect := func(lo, hi uint64) *transport.Msg {
		t.Helper()
		var history []*core.Report
		for ctr := lo; ctr <= hi; ctr++ {
			r, err := prv.SelfMeasure(ctr)
			if err != nil {
				t.Fatal(err)
			}
			history = append(history, r)
		}
		send(transport.Msg{Kind: transport.KindCollection, Reports: history})
		v := await(transport.KindVerdict)
		return &v
	}

	// Mid-epoch state: one SMART round and one collection.
	send(transport.Msg{Kind: transport.KindHello})
	ch1 := await(transport.KindChallenge)
	rep, err := prv.Respond(ch1.Nonce)
	if err != nil {
		t.Fatal(err)
	}
	send(transport.Msg{Kind: transport.KindReport, Reports: []*core.Report{rep}})
	if v := await(transport.KindVerdict); !v.OK {
		t.Fatalf("pre-kill SMART rejected: %s", v.Reason)
	}
	if v := collect(1, 3); !v.OK {
		t.Fatalf("pre-kill collection rejected: %s", v.Reason)
	}
	waitFor(t, func() bool { return srv.Counts().Accepted == 4 })

	// Persist through the on-disk chain the daemon actually writes:
	// base now, a delta after the SeED report lands.
	cpPath := filepath.Join(t.TempDir(), "cp")
	// MaxDeltaFrac is disarmed: with a 1-prover fleet any delta
	// exceeds half the base, and this test wants the chain kept.
	ckpt := NewCheckpointer(srv, CheckpointerConfig{Path: cpPath, MaxDeltaFrac: 100})
	if err := ckpt.Tick(); err != nil {
		t.Fatal(err)
	}
	sr, err := prv.SeedReport(5)
	if err != nil {
		t.Fatal(err)
	}
	send(transport.Msg{Kind: transport.KindSeedReport, Reports: []*core.Report{sr}})
	waitFor(t, func() bool { return srv.Counts().Accepted == 5 })
	if err := ckpt.Tick(); err != nil {
		t.Fatal(err)
	}

	// A challenge left unanswered and one more SeED report, then the
	// crash: the delta capturing the report is torn mid-write, a stale
	// delta from a dead chain lingers, and a half-written base temp file
	// survives. Restore must salvage the torn tail, drop the stale file,
	// ignore the temp — and lose none of the pre-crash freshness state.
	send(transport.Msg{Kind: transport.KindHello})
	chOpen := await(transport.KindChallenge)
	sr, err = prv.SeedReport(6)
	if err != nil {
		t.Fatal(err)
	}
	send(transport.Msg{Kind: transport.KindSeedReport, Reports: []*core.Report{sr}})
	waitFor(t, func() bool { return srv.Counts().Accepted == 6 })
	if err := ckpt.Tick(); err != nil {
		t.Fatal(err)
	}
	d2 := cpPath + ".d2"
	info, err := os.Stat(d2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(d2, info.Size()-4); err != nil {
		t.Fatal(err)
	}
	stale := encodeCP(t, &Checkpoint{
		Erasmus: map[string]DedupWindow{name: {}}, // would wipe the window if applied
		Seed:    map[string]uint64{},
		Delta:   true, ChainID: 99, Seq: 3,
	})
	if err := os.WriteFile(cpPath+".d3", stale, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cpPath+".tmp", []byte("half-written base"), 0o644); err != nil {
		t.Fatal(err)
	}

	cp, chain, err := LoadChain(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Applied != 2 || !chain.Truncated || chain.Dropped != 1 {
		t.Fatalf("chain restore %+v, want 2 applied / truncated / 1 dropped", chain)
	}
	if w := cp.Erasmus[name]; len(w.Counters()) != 3 || cp.Seed[name] != 6 {
		t.Fatalf("checkpoint missing enrollment: %+v", cp)
	}
	addr := lis.Addr().String()
	srv.Close()
	lis.Close()

	// Restart on the same address from the serialized checkpoint.
	relis, err := transport.Listen(transport.NetConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer relis.Close()
	if srv, err = Serve(relis, cfg); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Restore(cp)
	if got := srv.Enrolled(); got != 1 {
		t.Fatalf("restored server enrolled %d provers, want 1", got)
	}

	// Replayed collection: previously-accepted counters must still be
	// rejected, with the replay counted.
	if v := collect(1, 3); v.OK {
		t.Fatal("replayed collection accepted after restore")
	}
	if c := srv.Counts(); c.Replays == 0 {
		t.Fatalf("replays not counted after restore: %+v", c)
	}
	// Fresh counters keep verifying with no re-enrollment handshake.
	if v := collect(4, 6); !v.OK {
		t.Fatalf("fresh collection rejected after restore: %s", v.Reason)
	}
	// SeED: watermark survived — replay rejected, next counter accepted.
	for _, tc := range []struct {
		ctr    uint64
		wantOK bool
	}{{6, false}, {7, true}} {
		sr, err := prv.SeedReport(tc.ctr)
		if err != nil {
			t.Fatal(err)
		}
		before := srv.Counts()
		send(transport.Msg{Kind: transport.KindSeedReport, Reports: []*core.Report{sr}})
		waitFor(t, func() bool {
			c := srv.Counts()
			return c.Accepted+c.Rejected > before.Accepted+before.Rejected
		})
		c := srv.Counts()
		if tc.wantOK && c.Accepted != before.Accepted+1 {
			t.Fatalf("SeED ctr %d not accepted after restore: %+v", tc.ctr, c)
		}
		if !tc.wantOK && c.Rejected != before.Rejected+1 {
			t.Fatalf("SeED replay ctr %d not rejected after restore: %+v", tc.ctr, c)
		}
	}
	// I3 by construction: no challenge redeems outside the server and
	// the incarnation that minted it, because its MAC key is drawn per
	// incarnation and never persisted. A challenge the other live Server
	// minted, the pre-kill response and the pre-kill challenge nobody
	// answered all fail the MAC here.
	refused := func(what string, reports ...*core.Report) {
		t.Helper()
		send(transport.Msg{Kind: transport.KindReport, Reports: reports})
		if v := await(transport.KindVerdict); v.OK || v.Reason != verifier.ReasonNonceMismatch.String() {
			t.Fatalf("%s after restart: ok=%v %q, want %q", what, v.OK, v.Reason, verifier.ReasonNonceMismatch)
		}
	}
	if err := otherCli.Send(transport.Msg{From: name, To: endpoint, Kind: transport.KindHello}); err != nil {
		t.Fatal(err)
	}
	chOther := await(transport.KindChallenge)
	repOther, err := prv.Respond(chOther.Nonce)
	if err != nil {
		t.Fatal(err)
	}
	refused("response to the other server's challenge", repOther)
	refused("pre-kill response replayed", rep)
	repOpen, err := prv.Respond(chOpen.Nonce)
	if err != nil {
		t.Fatal(err)
	}
	refused("response to an unanswered pre-kill challenge", repOpen)

	// SMART still works, on a challenge of the new incarnation.
	send(transport.Msg{Kind: transport.KindHello})
	ch2 := await(transport.KindChallenge)
	if bytes.Equal(ch1.Nonce, ch2.Nonce) {
		t.Fatal("challenge nonce reused across restart")
	}
	rep2, err := prv.Respond(ch2.Nonce)
	if err != nil {
		t.Fatal(err)
	}
	send(transport.Msg{Kind: transport.KindReport, Reports: []*core.Report{rep2}})
	if v := await(transport.KindVerdict); !v.OK {
		t.Fatalf("post-restore SMART rejected: %s", v.Reason)
	}
}

// waitFor spins until cond holds (Net delivery is asynchronous).
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 4000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never held")
}
