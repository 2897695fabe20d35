package core

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"io"
	"math/rand/v2"
	"testing"

	"saferatt/internal/costmodel"
	"saferatt/internal/device"
	"saferatt/internal/mem"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
	"saferatt/internal/trace"
)

// rig is a minimal prover-side test fixture.
type rig struct {
	k   *sim.Kernel
	m   *mem.Memory
	dev *device.Device
	ref []byte // golden image snapshot
}

func newRig(t *testing.T, size, blockSize int) *rig {
	t.Helper()
	k := sim.NewKernel()
	m := mem.New(mem.Config{Size: size, BlockSize: blockSize, ROMBlocks: 1, Clock: k.Now, LogWrites: true})
	m.FillRandom(rand.New(rand.NewPCG(42, 42)))
	prof := costmodel.ODROIDXU4()
	d := device.New(device.Config{Kernel: k, Mem: m, Profile: prof, Trace: &trace.Log{}})
	return &rig{k: k, m: m, dev: d, ref: m.Snapshot()}
}

// expectedTag recomputes the verifier-side tag for a report against the
// rig's golden image.
func (r *rig) expectedTag(t *testing.T, rep *Report, shuffled bool) []byte {
	t.Helper()
	order := DeriveOrder(r.dev.AttestationKey, rep.Nonce, rep.Round, r.m.NumBlocks(), shuffled)
	var buf bytes.Buffer
	ExpectedStreamForReport(&buf, suite.SHA256, rep, r.ref, r.m.BlockSize(), order)
	mac, err := suite.NewMAC(suite.SHA256, r.dev.AttestationKey)
	if err != nil {
		t.Fatal(err)
	}
	mac.Write(buf.Bytes())
	return mac.Sum(nil)
}

// run executes a single measurement to completion and returns the
// report.
func (r *rig) run(t *testing.T, opts Options, prio int) *Report {
	t.Helper()
	task := r.dev.NewTask("mp", prio)
	m, err := NewMeasurement(r.dev, task, opts, []byte("nonce-1"), 0)
	if err != nil {
		t.Fatal(err)
	}
	var rep *Report
	m.Start(func(rr *Report, err error) {
		if err != nil {
			t.Fatalf("measurement error: %v", err)
		}
		rep = rr
	})
	r.k.Run()
	if rep == nil {
		t.Fatal("measurement never completed")
	}
	return rep
}

func TestPresetsValidate(t *testing.T) {
	for _, id := range Mechanisms() {
		o := Preset(id, suite.SHA256)
		if err := o.Validate(); err != nil {
			t.Errorf("%s preset invalid: %v", id, err)
		}
		if o.Mechanism != id {
			t.Errorf("%s preset mislabeled as %s", id, o.Mechanism)
		}
	}
}

func TestPresetUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Preset("NOPE", suite.SHA256)
}

func TestOptionsValidation(t *testing.T) {
	bad := []Options{
		{Hash: suite.SHA256, ExtRelease: true},                // ext without lock
		{Hash: suite.SHA256, Lock: LockDec, ExtRelease: true}, // ext on dec
		{Hash: suite.SHA256, Rounds: -1},                      // negative rounds
		{Hash: suite.SHA256, Rounds: 3},                       // multi-round unshuffled
		{},                                                    // missing hash
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: %+v validated", i, o)
		}
	}
	good := Options{Hash: suite.SHA256, Shuffled: true, Rounds: 13}
	if err := good.Validate(); err != nil {
		t.Errorf("multi-round SMARM options rejected: %v", err)
	}
	if good.NumRounds() != 13 {
		t.Error("NumRounds")
	}
	if (Options{}).NumRounds() != 1 {
		t.Error("NumRounds default")
	}
}

func TestLockPolicyString(t *testing.T) {
	for p, want := range map[LockPolicy]string{LockNone: "none", LockAllPolicy: "all", LockDec: "dec", LockInc: "inc", LockPolicy(99): "LockPolicy(99)"} {
		if p.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(p), p.String(), want)
		}
	}
}

func TestDeriveOrderSequentialIsIdentity(t *testing.T) {
	order := DeriveOrder([]byte("k"), []byte("n"), 0, 8, false)
	for i, b := range order {
		if b != i {
			t.Fatalf("sequential order = %v", order)
		}
	}
}

func TestDeriveOrderShuffledIsPermutation(t *testing.T) {
	n := 64
	order := DeriveOrder([]byte("k"), []byte("n"), 0, n, true)
	seen := make([]bool, n)
	for _, b := range order {
		if b < 0 || b >= n || seen[b] {
			t.Fatalf("not a permutation: %v", order)
		}
		seen[b] = true
	}
	// Deterministic.
	again := DeriveOrder([]byte("k"), []byte("n"), 0, n, true)
	for i := range order {
		if order[i] != again[i] {
			t.Fatal("non-deterministic permutation")
		}
	}
	// Differs across nonce, round and key.
	same := func(a, b []int) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if same(order, DeriveOrder([]byte("k"), []byte("n2"), 0, n, true)) {
		t.Fatal("permutation independent of nonce")
	}
	if same(order, DeriveOrder([]byte("k"), []byte("n"), 1, n, true)) {
		t.Fatal("permutation independent of round")
	}
	if same(order, DeriveOrder([]byte("k2"), []byte("n"), 0, n, true)) {
		t.Fatal("permutation independent of key")
	}
}

func TestMeasurementProducesVerifiableTag(t *testing.T) {
	for _, id := range Mechanisms() {
		r := newRig(t, 4096, 256)
		opts := Preset(id, suite.SHA256)
		rep := r.run(t, opts, 5)
		want := r.expectedTag(t, rep, opts.Shuffled)
		if !bytes.Equal(rep.Tag, want) {
			t.Errorf("%s: tag does not verify against golden image", id)
		}
		if rep.TE <= rep.TS {
			t.Errorf("%s: t_e %v <= t_s %v", id, rep.TE, rep.TS)
		}
		if rep.NumBlocks != 16 || rep.BlockSize != 256 {
			t.Errorf("%s: geometry %dx%d", id, rep.NumBlocks, rep.BlockSize)
		}
		for b := 0; b < 16; b++ {
			if rep.Coverage.CoveredAt[b] < 0 {
				t.Errorf("%s: block %d not covered", id, b)
			}
		}
	}
}

func TestTamperedMemoryChangesTag(t *testing.T) {
	r := newRig(t, 4096, 256)
	// Corrupt one byte in block 7 before measuring.
	if err := r.m.Poke(7*256+13, 0xFF); err != nil {
		t.Fatal(err)
	}
	rep := r.run(t, Preset(SMART, suite.SHA256), 5)
	want := r.expectedTag(t, rep, false)
	if bytes.Equal(rep.Tag, want) {
		t.Fatal("tag matches golden image despite tampering")
	}
}

func TestMeasurementDurationMatchesCostModel(t *testing.T) {
	r := newRig(t, 64*1024, 1024)
	rep := r.run(t, Preset(NoLock, suite.SHA256), 5)
	prof := r.dev.Profile
	// Engine charges: fixed + per-block stream + finalization(256B),
	// plus one context switch for the initial idle->MP dispatch.
	want := prof.HashFixed[suite.SHA256] +
		prof.StreamTime(suite.SHA256, 64*1024) +
		prof.StreamTime(suite.SHA256, 256) +
		prof.CtxSwitch
	got := rep.TE.Sub(0) // t_s is after the setup step; duration from 0 includes setup
	if got != want {
		t.Fatalf("measurement span = %v, want %v", got, want)
	}
}

func TestAllLockHoldsDuringMeasurement(t *testing.T) {
	r := newRig(t, 4096, 256)
	task := r.dev.NewTask("mp", 5)
	m, _ := NewMeasurement(r.dev, task, Preset(AllLock, suite.SHA256), []byte("n"), 0)
	var midLocked, afterLocked int
	m.Hooks = Hooks{
		OnBlock: func(p Progress) {
			if p.Count == 8 {
				midLocked = r.m.LockedCount()
			}
		},
	}
	m.Start(func(rep *Report, err error) {
		r.k.Schedule(0, func() { afterLocked = r.m.LockedCount() })
	})
	r.k.Run()
	if midLocked != 16 {
		t.Fatalf("mid-measurement locked = %d, want 16", midLocked)
	}
	if afterLocked != 1 { // only ROM
		t.Fatalf("post-measurement locked = %d, want 1 (ROM)", afterLocked)
	}
}

func TestDecLockReleasesProgressively(t *testing.T) {
	r := newRig(t, 4096, 256)
	task := r.dev.NewTask("mp", 5)
	m, _ := NewMeasurement(r.dev, task, Preset(DecLock, suite.SHA256), []byte("n"), 0)
	var counts []int
	m.Hooks = Hooks{OnBlock: func(p Progress) { counts = append(counts, r.m.LockedCount()) }}
	m.Start(func(*Report, error) {})
	r.k.Run()
	// After covering k blocks, 16-k remain locked... except ROM (block
	// 0) which always counts. Blocks measured in order 0..15; block 0
	// is ROM so unlocking it leaves it counted.
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[i-1] {
			t.Fatalf("Dec-Lock lock count increased: %v", counts)
		}
	}
	if last := counts[len(counts)-1]; last != 1 {
		t.Fatalf("final locked = %d, want 1 (ROM)", last)
	}
}

func TestIncLockAcquiresProgressively(t *testing.T) {
	r := newRig(t, 4096, 256)
	task := r.dev.NewTask("mp", 5)
	m, _ := NewMeasurement(r.dev, task, Preset(IncLock, suite.SHA256), []byte("n"), 0)
	var counts []int
	m.Hooks = Hooks{OnBlock: func(p Progress) { counts = append(counts, r.m.LockedCount()) }}
	var after int
	m.Start(func(*Report, error) { r.k.Schedule(0, func() { after = r.m.LockedCount() }) })
	r.k.Run()
	for i := 1; i < len(counts); i++ {
		if counts[i] < counts[i-1] {
			t.Fatalf("Inc-Lock lock count decreased: %v", counts)
		}
	}
	if last := counts[len(counts)-1]; last != 16 {
		t.Fatalf("locked at t_e = %d, want 16", last)
	}
	if after != 1 {
		t.Fatalf("after release = %d, want 1 (ROM)", after)
	}
}

func TestExtReleaseHoldsUntilRelease(t *testing.T) {
	for _, id := range []MechanismID{AllLockExt, IncLockExt} {
		r := newRig(t, 4096, 256)
		task := r.dev.NewTask("mp", 5)
		m, _ := NewMeasurement(r.dev, task, Preset(id, suite.SHA256), []byte("n"), 0)
		var rep *Report
		m.Start(func(rr *Report, err error) { rep = rr })
		r.k.Run()
		if got := r.m.LockedCount(); got != 16 {
			t.Fatalf("%s: locked = %d at t_e, want 16", id, got)
		}
		r.k.RunUntil(r.k.Now().Add(5 * sim.Second))
		tr := m.Release()
		if tr != r.k.Now() {
			t.Fatalf("%s: release time %v", id, tr)
		}
		if r.m.LockedCount() != 1 {
			t.Fatalf("%s: still locked after Release", id)
		}
		if rep.ReleasedAt != tr {
			t.Fatalf("%s: report.ReleasedAt = %v, want %v", id, rep.ReleasedAt, tr)
		}
		if m.Release() != 0 {
			t.Fatalf("%s: double release not a no-op", id)
		}
	}
}

func TestAtomicBlocksHigherPriorityUntilTE(t *testing.T) {
	r := newRig(t, 16*1024, 1024)
	app := r.dev.NewTask("app", 100)
	task := r.dev.NewTask("mp", 1)
	m, _ := NewMeasurement(r.dev, task, Preset(SMART, suite.SHA256), []byte("n"), 0)
	var te, appRan sim.Time
	m.Start(func(rep *Report, err error) { te = rep.TE })
	// App interrupt shortly after measurement starts.
	r.k.At(sim.Time(10*sim.Microsecond), func() {
		app.Submit(sim.Microsecond, func() { appRan = r.k.Now() })
	})
	r.k.Run()
	if appRan <= te {
		t.Fatalf("app ran at %v, before t_e %v despite atomic MP", appRan, te)
	}
}

func TestNonAtomicYieldsBetweenBlocks(t *testing.T) {
	r := newRig(t, 16*1024, 1024)
	app := r.dev.NewTask("app", 100)
	task := r.dev.NewTask("mp", 1)
	m, _ := NewMeasurement(r.dev, task, Preset(NoLock, suite.SHA256), []byte("n"), 0)
	var te, appRan sim.Time
	m.Start(func(rep *Report, err error) { te = rep.TE })
	r.k.At(sim.Time(10*sim.Microsecond), func() {
		app.Submit(sim.Microsecond, func() { appRan = r.k.Now() })
	})
	r.k.Run()
	if appRan == 0 || appRan >= te {
		t.Fatalf("app ran at %v, t_e %v: interruptible MP should yield mid-measurement", appRan, te)
	}
	// Preemption latency bounded by ~one block measurement.
	blockTime := r.dev.Profile.StreamTime(suite.SHA256, 1024)
	if lat := app.Stats().MaxWait; lat > 2*blockTime+r.dev.Profile.CtxSwitch {
		t.Fatalf("preemption latency %v exceeds ~1 block time %v", lat, blockTime)
	}
}

// TestUntracedRoundAllocs pins that a measurement on a device with no
// trace builds none of its trace lines: every escape trial and every
// E12 fleet device measures untraced. Building the t_s and t_e lines
// only for the nil trace to drop them boxes their arguments: two
// allocations a round past this bound.
func TestUntracedRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race suite")
	}
	k := sim.NewKernel()
	m := mem.New(mem.Config{Size: 4096, BlockSize: 256, ROMBlocks: 1, Clock: k.Now})
	d := device.New(device.Config{Kernel: k, Mem: m, Profile: costmodel.ODROIDXU4()})
	task := d.NewTask("mp", 5)
	nonce := []byte("nonce-1")
	round := func() {
		ms, err := NewMeasurement(d, task, Preset(SMART, suite.SHA256), nonce, 0)
		if err != nil {
			t.Fatal(err)
		}
		ms.Start(func(*Report, error) {})
		k.Run()
	}
	round() // pooled taggers and scratch exist
	a := testing.AllocsPerRun(50, round)
	t.Logf("%.1f allocs a round", a)
	if a > untracedRoundAllocs {
		t.Fatalf("an untraced round allocates %.1f objects, want <= %d", a, untracedRoundAllocs)
	}
}

const untracedRoundAllocs = 10

func TestSessionMultiRound(t *testing.T) {
	r := newRig(t, 4096, 256)
	opts := Preset(SMARM, suite.SHA256)
	opts.Rounds = 5
	task := r.dev.NewTask("mp", 5)
	s, err := NewSession(r.dev, task, opts, []byte("nonce"), 7)
	if err != nil {
		t.Fatal(err)
	}
	var reports []*Report
	s.Start(func(rr []*Report, err error) {
		if err != nil {
			t.Fatalf("session error: %v", err)
		}
		reports = rr
	})
	r.k.Run()
	if len(reports) != 5 {
		t.Fatalf("%d reports, want 5", len(reports))
	}
	for i, rep := range reports {
		if rep.Round != i {
			t.Fatalf("report %d has round %d", i, rep.Round)
		}
		if rep.Counter != 7 {
			t.Fatalf("counter = %d, want 7", rep.Counter)
		}
		want := r.expectedTag(t, rep, true)
		if !bytes.Equal(rep.Tag, want) {
			t.Fatalf("round %d tag mismatch", i)
		}
	}
	// Rounds must traverse in different orders (overwhelming probability).
	sameOrder := true
	for i := range reports[0].Order {
		if reports[0].Order[i] != reports[1].Order[i] {
			sameOrder = false
			break
		}
	}
	if sameOrder {
		t.Fatal("rounds 0 and 1 used identical permutations")
	}
}

func TestSignatureModeMeasurement(t *testing.T) {
	r := newRig(t, 2048, 256)
	opts := Preset(SMART, suite.SHA256)
	opts.Signer = suite.ECDSA256
	rep := r.run(t, opts, 5)
	if rep.Scheme != "SHA-256+ECDSA-P256" {
		t.Fatalf("scheme = %q", rep.Scheme)
	}
	// Verify: recompute stream, verify signature.
	sg, err := suite.NewSigner(suite.ECDSA256)
	if err != nil {
		t.Fatal(err)
	}
	scheme := suite.Scheme{Hash: suite.SHA256, Signer: sg}
	order := DeriveOrder(r.dev.AttestationKey, rep.Nonce, rep.Round, r.m.NumBlocks(), false)
	ok, err := scheme.VerifyStream(func(w io.Writer) error {
		ExpectedStreamForReport(w, suite.SHA256, rep, r.ref, 256, order)
		return nil
	}, rep.Tag)
	if err != nil || !ok {
		t.Fatalf("signature verification failed: %v %v", ok, err)
	}
	// Signature time charged: duration exceeds MAC-mode duration.
	r2 := newRig(t, 2048, 256)
	rep2 := r2.run(t, Preset(SMART, suite.SHA256), 5)
	if rep.Duration() <= rep2.Duration() {
		t.Fatal("signature mode not slower than MAC mode")
	}
}

func TestMeasurementStartTwicePanics(t *testing.T) {
	r := newRig(t, 2048, 256)
	task := r.dev.NewTask("mp", 5)
	m, _ := NewMeasurement(r.dev, task, Preset(SMART, suite.SHA256), []byte("n"), 0)
	m.Start(func(*Report, error) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Start(func(*Report, error) {})
}

func TestNewMeasurementRejectsNilTaskAndBadOpts(t *testing.T) {
	r := newRig(t, 2048, 256)
	if _, err := NewMeasurement(r.dev, nil, Preset(SMART, suite.SHA256), nil, 0); err == nil {
		t.Fatal("nil task accepted")
	}
	task := r.dev.NewTask("mp", 5)
	if _, err := NewMeasurement(r.dev, task, Options{}, nil, 0); err == nil {
		t.Fatal("invalid options accepted")
	}
	if _, err := NewSession(r.dev, task, Options{}, nil, 0); err == nil {
		t.Fatal("NewSession accepted invalid options")
	}
}

func TestPRFDeterministicAndKeyed(t *testing.T) {
	a := PRF([]byte("k"), "label", 1)
	b := PRF([]byte("k"), "label", 1)
	if !bytes.Equal(a, b) {
		t.Fatal("PRF not deterministic")
	}
	if bytes.Equal(a, PRF([]byte("k"), "label", 2)) {
		t.Fatal("PRF ignores counter")
	}
	if bytes.Equal(a, PRF([]byte("k"), "other", 1)) {
		t.Fatal("PRF ignores label")
	}
	if bytes.Equal(a, PRF([]byte("k2"), "label", 1)) {
		t.Fatal("PRF ignores key")
	}
	if len(a) != 32 {
		t.Fatalf("PRF length %d", len(a))
	}
}

// Both forms are HMAC-SHA256(key, label || counter) for every key
// length HMAC treats differently (empty, short, one block, longer), and
// the one-shot form allocates nothing.
func TestPRFFormsMatchHMAC(t *testing.T) {
	label := []byte("label")
	for _, n := range []int{0, 1, 32, 63, 64, 65, 200} {
		key := bytes.Repeat([]byte{byte(n + 1)}, n)
		mac := hmac.New(sha256.New, key)
		mac.Write(label)
		mac.Write([]byte{0, 0, 0, 0, 0, 0, 1, 7})
		want := mac.Sum(nil)
		if got := AppendPRFOnce(nil, key, label, 0x107); !bytes.Equal(got, want) {
			t.Fatalf("AppendPRFOnce with a %d-byte key = %x, HMAC %x", n, got, want)
		}
		if got := AppendPRF(nil, key, label, 0x107); !bytes.Equal(got, want) {
			t.Fatalf("AppendPRF with a %d-byte key = %x, HMAC %x", n, got, want)
		}
	}
	key, dst := make([]byte, 32), make([]byte, 0, 32)
	if allocs := testing.AllocsPerRun(100, func() { AppendPRFOnce(dst, key, label, 1) }); allocs != 0 {
		t.Fatalf("AppendPRFOnce allocates %.1f objects a call", allocs)
	}
}

func TestProgressMeasuredBlocks(t *testing.T) {
	p := Progress{Count: 2, Total: 4, KnownOrder: []int{3, 1, 0, 2}}
	mb := p.MeasuredBlocks()
	if len(mb) != 2 || mb[0] != 3 || mb[1] != 1 {
		t.Fatalf("MeasuredBlocks = %v", mb)
	}
	p.KnownOrder = nil
	if p.MeasuredBlocks() != nil {
		t.Fatal("secret order leaked measured blocks")
	}
}

// The §2.4 encryption-based MAC option drives the whole stack: a SMART
// measurement tagged with AES-CMAC verifies against the golden image.
func TestMeasurementWithAESCMAC(t *testing.T) {
	r := newRig(t, 4096, 256)
	opts := Preset(SMART, suite.AESCMAC)
	rep := r.run(t, opts, 5)
	if rep.Scheme != "AES-CMAC" {
		t.Fatalf("scheme %q", rep.Scheme)
	}
	scheme := suite.Scheme{Hash: suite.AESCMAC, Key: r.dev.AttestationKey}
	order := DeriveOrder(r.dev.AttestationKey, rep.Nonce, rep.Round, r.m.NumBlocks(), false)
	ok, err := scheme.VerifyStream(func(w io.Writer) error {
		ExpectedStreamForReport(w, suite.AESCMAC, rep, r.ref, 256, order)
		return nil
	}, rep.Tag)
	if err != nil || !ok {
		t.Fatalf("AES-CMAC measurement failed verification: %v %v", ok, err)
	}
}
