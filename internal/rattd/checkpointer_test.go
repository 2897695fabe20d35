package rattd

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"saferatt/internal/core"
	"saferatt/internal/transport"
)

// ckptFixture is a local server with a small enrolled fleet and an
// ingest helper for dirtying individual provers.
type ckptFixture struct {
	srv  *Server
	prvs []*Prover
}

func newCkptFixture(t *testing.T, fleet int) *ckptFixture {
	t.Helper()
	fx := &ckptFixture{srv: localServer(t, Config{Stripes: 4})}
	image := GoldenImage(7, testMem, testBlock)
	for i := 0; i < fleet; i++ {
		p, err := NewProver(proverName(i), DefaultKey, image, testBlock)
		if err != nil {
			t.Fatal(err)
		}
		fx.prvs = append(fx.prvs, p)
		fx.ingest(t, i, 1)
	}
	return fx
}

func (fx *ckptFixture) ingest(t *testing.T, i int, ctr uint64) {
	t.Helper()
	r := selfMeasure(t, fx.prvs[i], ctr)
	fx.srv.Ingest(fx.prvs[i].Name, transport.KindCollection, []core.Report{r})
}

func proverName(i int) string {
	// Fixed-width names so per-stripe sorted order is also numeric.
	const digits = "0123456789"
	return "prv" + string([]byte{
		digits[i/10000%10], digits[i/1000%10], digits[i/100%10], digits[i/10%10], digits[i%10],
	})
}

// TestCheckpointerChain drives the full base→delta→compaction cycle
// and checks the on-disk chain always restores to exactly the live
// state.
func TestCheckpointerChain(t *testing.T) {
	const fleet = 20
	fx := newCkptFixture(t, fleet)
	path := filepath.Join(t.TempDir(), "cp")
	ck := NewCheckpointer(fx.srv, CheckpointerConfig{Path: path, MaxDeltaFrac: 100})

	// First tick: a base holding the whole fleet.
	if err := ck.Tick(); err != nil {
		t.Fatal(err)
	}
	if st := ck.Stats(); st.Fulls != 1 || st.LastDirty != fleet {
		t.Fatalf("after base: %+v", st)
	}
	cp, chain, err := LoadChain(path)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Applied != 0 || len(cp.Erasmus) != fleet {
		t.Fatalf("base restore: chain %+v, %d provers", chain, len(cp.Erasmus))
	}

	// Clean server: the tick is a skip, no delta file appears.
	if err := ck.Tick(); err != nil {
		t.Fatal(err)
	}
	if st := ck.Stats(); st.Skips != 1 {
		t.Fatalf("clean tick did not skip: %+v", st)
	}
	if _, err := os.Stat(path + ".d1"); !os.IsNotExist(err) {
		t.Fatalf("skip still wrote a delta: %v", err)
	}

	// Dirty two provers: the delta holds exactly those two.
	fx.ingest(t, 0, 2)
	fx.ingest(t, 1, 2)
	if d := fx.srv.DirtyCount(); d != 2 {
		t.Fatalf("dirty count %d, want 2", d)
	}
	if err := ck.Tick(); err != nil {
		t.Fatal(err)
	}
	if st := ck.Stats(); st.Deltas != 1 || st.LastDirty != 2 {
		t.Fatalf("after delta: %+v", st)
	}
	db, err := os.ReadFile(path + ".d1")
	if err != nil {
		t.Fatal(err)
	}
	dcp, err := DecodeCheckpoint(db)
	if err != nil {
		t.Fatal(err)
	}
	if !dcp.Delta || dcp.ChainID != 1 || dcp.Seq != 1 || len(dcp.Erasmus) != 2 {
		t.Fatalf("delta file holds %d provers (%+v), want the 2 dirtied", len(dcp.Erasmus), dcp)
	}
	assertChainMatchesLive(t, path, fx.srv, 1)

	// Deltas up to maxDeltas, then the next dirty tick compacts: a
	// fresh base under a new chain ID, old deltas gone.
	for i := 2; i <= maxDeltas+1; i++ {
		fx.ingest(t, i, 2)
		if err := ck.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if st := ck.Stats(); st.Fulls != 2 || st.Compactions != 1 || st.Deltas != maxDeltas {
		t.Fatalf("after compaction: %+v", st)
	}
	for seq := 1; seq <= maxDeltas; seq++ {
		if _, err := os.Stat(deltaPath(path, uint32(seq))); !os.IsNotExist(err) {
			t.Fatalf("compaction left delta %d behind", seq)
		}
	}
	cp2, _, err := LoadChain(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp2.ChainID != 2 {
		t.Fatalf("compacted base chain id %d, want 2", cp2.ChainID)
	}
	assertChainMatchesLive(t, path, fx.srv, 0)

	// Restore the chain into a fresh server: a previously-accepted
	// counter is rejected exactly once, a fresh one accepted.
	s2 := localServer(t, Config{Stripes: 2})
	s2.Restore(cp2)
	r := selfMeasure(t, fx.prvs[0], 2) // accepted pre-checkpoint
	s2.Ingest(fx.prvs[0].Name, transport.KindCollection, []core.Report{r})
	if c := s2.Counts(); c.Replays != 1 || c.Accepted != 0 {
		t.Fatalf("replay after restore: %+v", c)
	}
	r = selfMeasure(t, fx.prvs[0], 3)
	s2.Ingest(fx.prvs[0].Name, transport.KindCollection, []core.Report{r})
	if c := s2.Counts(); c.Accepted != 1 {
		t.Fatalf("fresh counter after restore: %+v", c)
	}
}

// assertChainMatchesLive loads the chain and compares against the
// server's in-memory snapshot.
func assertChainMatchesLive(t *testing.T, path string, s *Server, wantDeltas int) {
	t.Helper()
	cp, chain, err := LoadChain(path)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Applied != wantDeltas || chain.Truncated || chain.Dropped != 0 {
		t.Fatalf("chain %+v, want %d clean deltas", chain, wantDeltas)
	}
	live := s.Checkpoint()
	if !reflect.DeepEqual(cp.Erasmus, live.Erasmus) || !reflect.DeepEqual(cp.Seed, live.Seed) {
		t.Fatalf("restored chain diverges from live state:\n got %d/%d entries\nwant %d/%d",
			len(cp.Erasmus), len(cp.Seed), len(live.Erasmus), len(live.Seed))
	}
}

// TestCheckpointerCrashWindows covers the crash shapes the file
// protocol promises to survive: a temp file left between write and
// rename, stale deltas from a chain whose compaction crashed before
// cleanup, and a gap in the delta sequence.
func TestCheckpointerCrashWindows(t *testing.T) {
	const fleet = 4
	fx := newCkptFixture(t, fleet)
	path := filepath.Join(t.TempDir(), "cp")
	ck := NewCheckpointer(fx.srv, CheckpointerConfig{Path: path, MaxDeltaFrac: 100})
	if err := ck.Tick(); err != nil {
		t.Fatal(err)
	}
	fx.ingest(t, 0, 2)
	if err := ck.Tick(); err != nil { // d1
		t.Fatal(err)
	}
	want := fx.srv.Checkpoint()

	// Crash between temp-write and rename: the half-written temp must
	// be invisible to restore.
	if err := os.WriteFile(path+".tmp", []byte("torn base"), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, chain, err := LoadChain(path)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Applied != 1 || !reflect.DeepEqual(cp.Erasmus, want.Erasmus) {
		t.Fatalf("temp file perturbed restore: chain %+v", chain)
	}

	// Crash after a compaction's rename but before delta cleanup: a
	// new base plus the old chain's d1. The stale delta must be
	// dropped by chain ID, not applied.
	base2 := encodeCP(t, &Checkpoint{
		Erasmus: want.Erasmus,
		Seed:    want.Seed,
		ChainID: 2,
	})
	if err := os.WriteFile(path, base2, 0o644); err != nil {
		t.Fatal(err)
	}
	cp, chain, err = LoadChain(path)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Applied != 0 || chain.Dropped != 1 {
		t.Fatalf("stale delta not dropped: %+v", chain)
	}
	if !reflect.DeepEqual(cp.Erasmus, want.Erasmus) {
		t.Fatal("stale delta perturbed restored state")
	}

	// A sequence gap ends the chain: d2 missing means d3 is never read
	// (even if well-formed).
	d2 := encodeCP(t, &Checkpoint{
		Erasmus: map[string]DedupWindow{proverName(1): windowOf(9)},
		Seed:    map[string]uint64{},
		Delta:   true, ChainID: 2, Seq: 1,
	})
	d3 := encodeCP(t, &Checkpoint{
		Erasmus: map[string]DedupWindow{proverName(2): windowOf(9)},
		Seed:    map[string]uint64{},
		Delta:   true, ChainID: 2, Seq: 3, // gap: seq 2 never written
	})
	if err := os.WriteFile(deltaPath(path, 2), d3, 0o644); err != nil {
		t.Fatal(err)
	}
	os.Remove(deltaPath(path, 1))
	if err := os.WriteFile(deltaPath(path, 1), d2, 0o644); err != nil {
		t.Fatal(err)
	}
	cp, chain, err = LoadChain(path)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Applied != 1 || chain.Dropped != 1 {
		t.Fatalf("gapped chain: %+v, want 1 applied 1 dropped", chain)
	}
	if w := cp.Erasmus[proverName(2)]; w.Seen(9) {
		t.Fatal("delta beyond the gap was applied")
	}
}

// TestCheckpointerWriteErrorForcesFull pins the recovery rule: a
// failed write consumed the dirty set, so the next successful write
// must be a full base that recovers those records.
func TestCheckpointerWriteErrorForcesFull(t *testing.T) {
	const fleet = 4
	fx := newCkptFixture(t, fleet)
	path := filepath.Join(t.TempDir(), "cp")
	ck := NewCheckpointer(fx.srv, CheckpointerConfig{Path: path, MaxDeltaFrac: 100})
	if err := ck.Tick(); err != nil {
		t.Fatal(err)
	}

	// Sabotage the next delta: a directory squats on its path, so the
	// write fails after WriteCheckpoint already drained the dirty set.
	fx.ingest(t, 0, 2)
	if err := os.Mkdir(deltaPath(path, 1), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := ck.Tick(); err == nil {
		t.Fatal("delta write into a directory succeeded")
	}
	if st := ck.Stats(); st.Errors != 1 {
		t.Fatalf("error not counted: %+v", st)
	}
	if err := os.Remove(deltaPath(path, 1)); err != nil {
		t.Fatal(err)
	}

	// Only prover 1 is dirty now, but the recovery write must be a
	// full base — and it must contain prover 0's counter 2, which the
	// failed delta consumed.
	fx.ingest(t, 1, 2)
	if err := ck.Tick(); err != nil {
		t.Fatal(err)
	}
	if st := ck.Stats(); st.Fulls != 2 || st.Deltas != 0 {
		t.Fatalf("recovery write was not a full: %+v", st)
	}
	cp, _, err := LoadChain(path)
	if err != nil {
		t.Fatal(err)
	}
	if w := cp.Erasmus[proverName(0)]; !w.Seen(2) {
		t.Fatal("record consumed by the failed write was lost")
	}
	if len(cp.Erasmus) != fleet {
		t.Fatalf("recovery base holds %d provers, want %d", len(cp.Erasmus), fleet)
	}
}

// TestCheckpointerHelloOnlyTickSkips checks that minting challenges
// alone (hellos answered, no report accepted) persists nothing: a
// challenge is redeemable only under the key of the incarnation that
// minted it, which no checkpoint holds, so a tick that saw only hellos
// is a skip and writes no file.
func TestCheckpointerHelloOnlyTickSkips(t *testing.T) {
	fx := newCkptFixture(t, 2)
	path := filepath.Join(t.TempDir(), "cp")
	ck := NewCheckpointer(fx.srv, CheckpointerConfig{Path: path, MaxDeltaFrac: 100})
	if err := ck.Tick(); err != nil {
		t.Fatal(err)
	}
	fx.srv.Ingest(fx.prvs[0].Name, transport.KindHello, nil) // mints a challenge
	if err := ck.Tick(); err != nil {
		t.Fatal(err)
	}
	if st := ck.Stats(); st.Skips != 1 || st.Deltas != 0 || st.Fulls != 1 {
		t.Fatalf("hello-only tick: %+v", st)
	}
	if _, err := os.Stat(deltaPath(path, 1)); !os.IsNotExist(err) {
		t.Fatalf("hello-only tick wrote a delta file (stat: %v)", err)
	}
}
