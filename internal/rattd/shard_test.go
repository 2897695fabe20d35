package rattd

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"saferatt/internal/channel"
	"saferatt/internal/core"
	"saferatt/internal/sim"
	"saferatt/internal/transport"
)

// TestShardForProperties pins the routing contract: deterministic,
// in-range, balanced, and minimally disruptive when the tier grows.
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
		t.Fatal("degenerate tier widths must map to shard 0")
	}
}

// TestTierAddrs pins the one address layout daemon and clients share.
func TestTierAddrs(t *testing.T) {
	for _, c := range []struct {
		base string
		n    int
		want []string // nil: refused
	}{
		{"127.0.0.1:9779", 1, []string{"127.0.0.1:9779"}},
		{"not an address", 1, []string{"not an address"}}, // one shard: untouched, the listener judges it
		{"127.0.0.1:9779", 3, []string{"127.0.0.1:9779", "127.0.0.1:9780", "127.0.0.1:9781"}},
		{"host:0", 3, []string{"host:0", "host:0", "host:0"}}, // the kernel picks every port
		{"[::1]:9000", 2, []string{"[::1]:9000", "[::1]:9001"}},
		{":65528", 8, []string{":65528", ":65529", ":65530", ":65531", ":65532", ":65533", ":65534", ":65535"}},
		{":65530", 8, nil}, // would reach port 65537
		{"127.0.0.1", 2, nil},
		{"127.0.0.1:http", 2, nil},
		{"127.0.0.1:9779", 0, nil},
	} {
		got, err := TierAddrs(c.base, c.n)
		if (err != nil) != (c.want == nil) || !reflect.DeepEqual(got, c.want) {
			t.Errorf("TierAddrs(%q, %d) = %v, %v; want %v", c.base, c.n, got, err, c.want)
		}
	}
}

// TestCoordinatorLeasesDisjoint hammers Lease from many goroutines
// and checks every granted window is disjoint with a unique epoch.
func TestCoordinatorLeasesDisjoint(t *testing.T) {
	c := NewCoordinator(64)
	const perShard = 200
	var mu sync.Mutex
	var leases []EpochLease
	var wg sync.WaitGroup
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for i := 0; i < perShard; i++ {
				l := c.Lease(shard)
				mu.Lock()
				leases = append(leases, l)
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	sort.Slice(leases, func(a, b int) bool { return leases[a].Lo < leases[b].Lo })
	epochs := map[uint64]bool{}
	for i, l := range leases {
		if !l.Valid() {
			t.Fatalf("invalid lease %+v", l)
		}
		if epochs[l.Epoch] {
			t.Fatalf("duplicate epoch %d", l.Epoch)
		}
		epochs[l.Epoch] = true
		if i > 0 && l.Lo < leases[i-1].Hi {
			t.Fatalf("overlapping leases: %+v then %+v", leases[i-1], l)
		}
	}
	// A restored lease from a dead coordinator must fence future grants.
	c2 := NewCoordinator(64)
	c2.Observe(EpochLease{Shard: 1, Epoch: 41, Lo: 1 << 20, Hi: 1<<20 + 64})
	if l := c2.Lease(0); l.Lo < 1<<20+64 {
		t.Fatalf("lease %+v not fenced past observed window", l)
	} else if l.Epoch != 42 {
		t.Fatalf("epoch sequence did not resume past observed lease: %+v", l)
	}
}

// TestTierChallengeNoncesUnique drives two shards on one Sim link
// with a tiny lease window, forcing many lease rotations, and checks
// that no challenge nonce is ever minted twice across the tier.
func TestTierChallengeNoncesUnique(t *testing.T) {
	k := sim.NewKernel()
	link := channel.New(channel.Config{Kernel: k, Latency: sim.Millisecond, Seed: 5})
	tr := transport.NewSim(link)
	tier, err := ServeTier([]transport.Transport{tr, tr}, TierConfig{
		Base:   Config{Ref: GoldenImage(7, testMem, testBlock), BlockSize: testBlock},
		Window: 3, // rotate every 3 challenges
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()

	nonces := map[string]string{} // nonce -> shard that minted it
	var mu sync.Mutex
	recv := 0
	if err := tr.Bind("prv-n", func(m transport.Msg) {
		if m.Kind == transport.KindChallenge {
			mu.Lock()
			if prev, dup := nonces[string(m.Nonce)]; dup {
				t.Errorf("challenge nonce reused (first minted by %s, again by %s)", prev, m.From)
			}
			nonces[string(m.Nonce)] = m.From
			recv++
			mu.Unlock()
		}
	}); err != nil {
		t.Fatal(err)
	}
	const hellosPerShard = 50
	for i := 0; i < hellosPerShard; i++ {
		for s := 0; s < 2; s++ {
			if err := tr.Send(transport.Msg{From: "prv-n", To: ShardName(s), Kind: transport.KindHello}); err != nil {
				t.Fatal(err)
			}
			k.Run()
		}
	}
	if recv != 2*hellosPerShard {
		t.Fatalf("got %d challenges, want %d", recv, 2*hellosPerShard)
	}
	for s := 0; s < 2; s++ {
		if l := tier.Shard(s).Checkpoint().Lease; !l.Valid() || l.Shard != s {
			t.Fatalf("shard %d holds lease %+v", s, l)
		}
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

// TestShardRestartMidEpoch is the crash-recovery acceptance test:
// populate a 2-shard Net tier, checkpoint one shard mid-epoch, kill
// its socket, restart it from the checkpoint on the same address, and
// verify enrolled provers keep verifying without re-enrollment while
// previously-seen reports still read as replays.
func TestShardRestartMidEpoch(t *testing.T) {
	image := GoldenImage(7, testMem, testBlock)
	var lis [2]*transport.Net
	var trs []transport.Transport
	for i := range lis {
		l, err := transport.Listen(transport.NetConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		lis[i] = l
		trs = append(trs, l)
	}
	tier, err := ServeTier(trs, TierConfig{Base: Config{Ref: image, BlockSize: testBlock}})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()

	cli, err := transport.Dial(lis[0].Addr().String(), transport.NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := range lis {
		if err := cli.AddRoute(ShardName(i), lis[i].Addr().String()); err != nil {
			t.Fatal(err)
		}
	}

	// A prover homed on shard 1 — the shard we will kill.
	const victim = 1
	name := ""
	for i := 0; name == ""; i++ {
		n := fmt.Sprintf("prv%05d", i)
		if ShardFor(n, 2) == victim {
			name = n
		}
	}
	prv, err := NewProver(name, DefaultKey, image, testBlock)
	if err != nil {
		t.Fatal(err)
	}
	inbox := make(chan transport.Msg, 32)
	if err := cli.Bind(name, func(m transport.Msg) { inbox <- m }); err != nil {
		t.Fatal(err)
	}
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
		m.From, m.To = name, ShardName(victim)
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
	waitFor(t, func() bool { return tier.Shard(victim).Counts().Accepted == 4 })

	// Persist through the on-disk chain the daemon actually writes:
	// base now, a delta after the SeED report lands.
	cpPath := filepath.Join(t.TempDir(), "cp")
	// MaxDeltaFrac is disarmed: with a 1-prover fleet any delta
	// exceeds half the base, and this test wants the chain kept.
	ckpt := NewCheckpointer(tier.Shard(victim), CheckpointerConfig{Path: cpPath, MaxDeltaFrac: 100})
	if err := ckpt.Tick(); err != nil {
		t.Fatal(err)
	}
	sr, err := prv.SeedReport(5)
	if err != nil {
		t.Fatal(err)
	}
	send(transport.Msg{Kind: transport.KindSeedReport, Reports: []*core.Report{sr}})
	waitFor(t, func() bool { return tier.Shard(victim).Counts().Accepted == 5 })
	if err := ckpt.Tick(); err != nil {
		t.Fatal(err)
	}

	// One more SMART round advances the nonce cursor, then the crash:
	// the delta capturing it is torn mid-write, a stale delta from a
	// dead chain lingers, and a half-written base temp file survives.
	// Restore must salvage the torn tail, drop the stale file, ignore
	// the temp — and lose none of the pre-crash freshness state.
	send(transport.Msg{Kind: transport.KindHello})
	ch1b := await(transport.KindChallenge)
	rep1b, err := prv.Respond(ch1b.Nonce)
	if err != nil {
		t.Fatal(err)
	}
	send(transport.Msg{Kind: transport.KindReport, Reports: []*core.Report{rep1b}})
	if v := await(transport.KindVerdict); !v.OK {
		t.Fatalf("pre-kill SMART #2 rejected: %s", v.Reason)
	}
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
	if !cp.Lease.Valid() || cp.NonceCtr <= cp.Lease.Lo {
		t.Fatalf("checkpoint not mid-epoch: %+v", cp.Lease)
	}
	if w := cp.Erasmus[name]; len(w.Counters()) != 3 || cp.Seed[name] != 5 {
		t.Fatalf("checkpoint missing enrollment: %+v", cp)
	}
	addr := lis[victim].Addr().String()
	preLease := cp.Lease
	lis[victim].Close()

	// Restart on the same address from the serialized checkpoint.
	relis, err := transport.Listen(transport.NetConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer relis.Close()
	if err := tier.Restart(victim, relis, cp); err != nil {
		t.Fatal(err)
	}
	if got := tier.Shard(victim).Enrolled(); got != 1 {
		t.Fatalf("restored shard enrolled %d provers, want 1", got)
	}

	// Replayed collection: previously-accepted counters must still be
	// rejected, with the replay counted.
	if v := collect(1, 3); v.OK {
		t.Fatal("replayed collection accepted after restore")
	}
	if c := tier.Shard(victim).Counts(); c.Replays == 0 {
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
	}{{5, false}, {6, true}} {
		sr, err := prv.SeedReport(tc.ctr)
		if err != nil {
			t.Fatal(err)
		}
		before := tier.Shard(victim).Counts()
		send(transport.Msg{Kind: transport.KindSeedReport, Reports: []*core.Report{sr}})
		waitFor(t, func() bool {
			c := tier.Shard(victim).Counts()
			return c.Accepted+c.Rejected > before.Accepted+before.Rejected
		})
		c := tier.Shard(victim).Counts()
		if tc.wantOK && c.Accepted != before.Accepted+1 {
			t.Fatalf("SeED ctr %d not accepted after restore: %+v", tc.ctr, c)
		}
		if !tc.wantOK && c.Rejected != before.Rejected+1 {
			t.Fatalf("SeED replay ctr %d not rejected after restore: %+v", tc.ctr, c)
		}
	}
	// SMART still works, and the restored lease means the new
	// challenge cannot collide with any pre-kill nonce.
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
	// The coordinator was fenced: no future lease may overlap the
	// restored shard's window.
	if l := tier.coord.Lease(0); l.Lo < preLease.Hi {
		t.Fatalf("coordinator re-issued counters under restored lease: %+v vs %+v", l, preLease)
	}
}

// TestShardTier10k is the CI smoke gate: 10k provers (1k under
// -short) through a 4-shard Net tier with zero verification failures
// and per-shard balance within 1.5x.
func TestShardTier10k(t *testing.T) {
	provers := 10000
	if testing.Short() {
		provers = 1000
	}
	image := GoldenImage(7, testMem, testBlock)
	const shards = 4
	var trs []transport.Transport
	var addrs []string
	for i := 0; i < shards; i++ {
		l, err := transport.Listen(transport.NetConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		trs = append(trs, l)
		addrs = append(addrs, l.Addr().String())
	}
	tier, err := ServeTier(trs, TierConfig{Base: Config{Ref: image, BlockSize: testBlock}})
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()

	res, err := RunFleet(FleetConfig{
		Addrs:       addrs,
		Provers:     provers,
		Concurrency: 512,
		Image:       image,
		BlockSize:   testBlock,
		History:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SMARTFail+res.CollectFail != 0 {
		t.Fatalf("verification failures (smart %d, collect %d) across %d provers",
			res.SMARTFail, res.CollectFail, provers)
	}
	if res.SMARTOK != provers || res.CollectOK != provers {
		t.Fatalf("incomplete fleet: %+v", res)
	}
	counts := tier.Counts()
	if want := uint64(provers * 3); counts.Accepted < want {
		t.Fatalf("tier accepted %d reports, want >= %d", counts.Accepted, want)
	}
	if bal := tier.Balance(); math.IsInf(bal, 1) || bal > 1.5 {
		t.Fatalf("per-shard balance %.3f > 1.5 (per-shard %+v)", bal, tier.PerShard())
	}
	// Client-side routing must agree with what the shards saw: every
	// shard's challenge count matches the provers routed to it.
	per := tier.PerShard()
	for i, n := range res.ShardProvers {
		if per[i].Challenges < uint64(n) {
			t.Fatalf("shard %d answered %d challenges for %d routed provers", i, per[i].Challenges, n)
		}
	}
	t.Logf("%d provers / %d shards: balance %.3f, per-shard %v, p50 %v p99 %v",
		provers, shards, tier.Balance(), res.ShardProvers, res.P50, res.P99)
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
