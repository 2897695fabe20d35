package swarm

import (
	"reflect"
	"testing"

	"saferatt/internal/core"
	"saferatt/internal/device"
	"saferatt/internal/mem"
	"saferatt/internal/parallel"
	"saferatt/internal/suite"
	"saferatt/internal/verifier"
)

func newShardedFleet(t testing.TB, devices, shards int) *Sharded {
	t.Helper()
	s, err := NewSharded(ShardedConfig{
		EngineConfig: EngineConfig{Seed: 1234, Parallelism: shards},
		Devices:      devices,
		MemSize:      16 << 10,
		BlockSize:    256,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fullCopy rebuilds s as the fleet the copy-on-write engine replaced —
// the oracle arm of TestShardedCOWMatchesFullCopy: every device owns a
// private copy of the golden image (a zeroed memory restored to it), and
// the collector snapshots each one instead of sharing the golden.
func fullCopy(s *Sharded) {
	for _, d := range s.devs {
		own := mem.New(mem.Config{Size: s.cfg.MemSize, BlockSize: s.cfg.BlockSize,
			ROMBlocks: 1, Clock: d.kernel.Now})
		own.Restore(d.mem.SharedGolden().Bytes())
		d.mem = own
		d.dev = device.New(device.Config{Kernel: d.kernel, Mem: own, Profile: d.dev.Profile})
		d.task = d.dev.NewTask("MP:"+d.name, 5)
		s.Collector.RegisterDevice(d.name, d.dev, s.cfg.Opts)
	}
}

// The embedded EngineConfig's Parallelism knob is the only worker
// fan-out control (the deprecated Shards alias is gone): explicit
// values pass through, zero resolves to the process default.
func TestParallelismResolution(t *testing.T) {
	if got := parallel.Resolve(3); got != 3 {
		t.Fatalf("Resolve(3): got %d", got)
	}
	if got := parallel.Resolve(0); got != parallel.Default() {
		t.Fatalf("Resolve(0): got %d, want process default %d", got, parallel.Default())
	}
}

// infectSome pokes a deterministic set of devices.
func infectSome(t testing.TB, s *Sharded, victims []int) {
	t.Helper()
	for _, i := range victims {
		if err := s.Mem(i).Poke(7*256+3, 0x66); err != nil {
			t.Fatal(err)
		}
	}
}

func runRounds(t testing.TB, s *Sharded, nonces ...string) []*SwarmResult {
	t.Helper()
	var out []*SwarmResult
	for _, nonce := range nonces {
		res, err := s.Round([]byte(nonce))
		if err != nil {
			t.Fatal(err)
		}
		// Copy: the engine reuses result storage across rounds.
		cp := &SwarmResult{At: res.At, Verdicts: map[string]NodeVerdict{},
			Missing: append([]string(nil), res.Missing...)}
		for k, v := range res.Verdicts {
			cp.Verdicts[k] = v
		}
		out = append(out, cp)
	}
	return out
}

func TestShardedHealthyFleet(t *testing.T) {
	s := newShardedFleet(t, 32, 4)
	res, err := s.Round([]byte("r1"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Healthy() {
		t.Fatalf("healthy fleet judged unhealthy: missing=%v infected=%v", res.Missing, res.Infected())
	}
	if len(res.Verdicts) != 32 {
		t.Fatalf("verdicts for %d devices, want 32", len(res.Verdicts))
	}
	if s.DirtyBlocks() != 0 {
		t.Fatalf("clean fleet has %d dirty blocks", s.DirtyBlocks())
	}
	// COW: resident bytes ≈ one image, not 32.
	if rb := s.ResidentBytes(); rb != 16<<10 {
		t.Fatalf("resident bytes %d, want one golden image", rb)
	}
	// Batched verification amortized across the fleet.
	if bs := s.Collector.BatchStats(); bs.Computed >= bs.Reports || bs.Reports == 0 {
		t.Fatalf("no amortization: %+v", bs)
	}
}

func TestShardedDetectsInfection(t *testing.T) {
	s := newShardedFleet(t, 32, 4)
	infectSome(t, s, []int{5, 17})
	res, err := s.Round([]byte("r1"))
	if err != nil {
		t.Fatal(err)
	}
	infected := res.Infected()
	if len(infected) != 2 {
		t.Fatalf("infected = %v, want d00005 and d00017", infected)
	}
	seen := map[string]bool{}
	for _, n := range infected {
		seen[n] = true
	}
	if !seen["d00005"] || !seen["d00017"] {
		t.Fatalf("infected = %v, want d00005 and d00017", infected)
	}
	if res.Verdicts["d00005"].Reason != verifier.ReasonTagMismatch.String() {
		t.Fatalf("reason %q", res.Verdicts["d00005"].Reason)
	}
	if s.DirtyBlocks() != 2 {
		t.Fatalf("dirty blocks %d, want 2 (one per infected device)", s.DirtyBlocks())
	}
}

// TestShardedDeterministicAcrossShardCounts pins the tentpole
// determinism contract: shard counts {1, 4, 16} produce bit-identical
// collector output and infected-device verdicts, and all match the
// serial (Shards=1) path by construction.
func TestShardedDeterministicAcrossShardCounts(t *testing.T) {
	victims := []int{3, 11, 40}
	var want []*SwarmResult
	for _, shards := range []int{1, 4, 16} {
		s := newShardedFleet(t, 48, shards)
		infectSome(t, s, victims)
		got := runRounds(t, s, "round-a", "round-b", "round-c")
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d results differ from serial\nserial: %+v\ngot:    %+v", shards, want, got)
		}
	}
	// Sanity: the pinned results actually detect all three victims.
	for i, res := range want {
		if len(res.Infected()) != len(victims) {
			t.Fatalf("round %d: infected=%v, want %d victims", i, res.Infected(), len(victims))
		}
	}
}

// TestShardedCOWMatchesFullCopy pins that copy-on-write images are a
// pure memory optimization: verdicts match the naive full-copy fleet.
func TestShardedCOWMatchesFullCopy(t *testing.T) {
	victims := []int{9}
	cow := newShardedFleet(t, 24, 4)
	naive := newShardedFleet(t, 24, 4)
	fleet := naive.Mem(0).SharedGolden()
	fullCopy(naive)
	// No oracle device reads through the fleet's golden, and each holds
	// every non-ROM block privately, so the collector registered it by
	// snapshot rather than by the golden.
	for i := range 24 {
		m := naive.Mem(i)
		if m.SharedGolden() == fleet {
			t.Fatalf("oracle device %d reads through the fleet's golden", i)
		}
		if d, want := m.DirtyBlocks(), m.NumBlocks()-m.ROMBlocks(); d != want {
			t.Fatalf("oracle device %d holds %d private blocks, want %d", i, d, want)
		}
	}
	infectSome(t, cow, victims)
	infectSome(t, naive, victims)
	rc := runRounds(t, cow, "x", "y")
	rn := runRounds(t, naive, "x", "y")
	if !reflect.DeepEqual(rc, rn) {
		t.Fatalf("COW != full-copy\ncow:   %+v\nnaive: %+v", rc, rn)
	}
}

// TestShardedRace runs a 1000-device round with high shard parallelism;
// its value is under `go test -race` (CI), where it exercises the
// work-stealing engine against the shared golden image and batch maps.
func TestShardedRace(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping 1000-device fleet in -short mode")
	}
	s := newShardedFleet(t, 1000, 16)
	infectSome(t, s, []int{1, 500, 999})
	res, err := s.Round([]byte("race-round"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Infected()) != 3 {
		t.Fatalf("infected = %v, want 3 devices", res.Infected())
	}
	if len(res.Verdicts) != 1000 {
		t.Fatalf("verdicts %d, want 1000", len(res.Verdicts))
	}
}

// TestSharded10K is the acceptance-scale round: 10,000 devices in one
// collection pass. Skipped in -short mode; CI's race job runs it.
func TestSharded10K(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping 10k-device fleet in -short mode")
	}
	s, err := NewSharded(ShardedConfig{
		EngineConfig: EngineConfig{Seed: 99, Parallelism: 0}, // 0 = GOMAXPROCS
		Devices:      10_000,
		MemSize:      8 << 10,
		BlockSize:    256,
	})
	if err != nil {
		t.Fatal(err)
	}
	infectSome(t, s, []int{123, 4567, 9999})
	res, err := s.Round([]byte("10k-round"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Verdicts) != 10_000 {
		t.Fatalf("verdicts %d, want 10000", len(res.Verdicts))
	}
	if len(res.Infected()) != 3 {
		t.Fatalf("infected = %v, want 3 devices", res.Infected())
	}
	// Fleet-wide resident image cost stays O(golden + dirty), orders of
	// magnitude below 10k private copies.
	if rb := s.ResidentBytes(); rb > (8<<10)+3*256 {
		t.Fatalf("resident bytes %d, want golden + 3 dirty blocks", rb)
	}
}

func TestShardedConfigValidation(t *testing.T) {
	if _, err := NewSharded(ShardedConfig{}); err == nil {
		t.Fatal("zero Devices accepted")
	}
	bad := core.Options{Hash: suite.SHA256, Rounds: 3} // multi-round needs shuffle
	if _, err := NewSharded(ShardedConfig{Devices: 1, Opts: bad}); err == nil {
		t.Fatal("invalid opts accepted")
	}
}
