package verifier

import (
	"errors"
	"math/rand/v2"
	"strings"
	"testing"

	"saferatt/internal/core"
	"saferatt/internal/inccache"
	"saferatt/internal/mem"
	"saferatt/internal/suite"
)

// tagOver computes the honest measurement tag a clean device holding
// ref would produce — the pure function both sides of the protocol
// share.
func tagOver(t *testing.T, key, ref []byte, blockSize int, nonce []byte) []byte {
	t.Helper()
	scheme := suite.Scheme{Hash: suite.SHA256, Key: key}
	order := core.AppendOrderRegion(nil, key, nonce, 0, 0, len(ref)/blockSize, false)
	tg, err := scheme.AcquireTagger()
	if err != nil {
		t.Fatal(err)
	}
	defer scheme.ReleaseTagger(tg)
	core.ExpectedStream(tg, ref, blockSize, nonce, 0, order)
	tag, err := tg.Tag()
	if err != nil {
		t.Fatal(err)
	}
	return tag
}

// reportOver builds a clean report over ref.
func reportOver(t *testing.T, key, ref []byte, blockSize int, nonce []byte) *core.Report {
	t.Helper()
	return &core.Report{
		Mechanism: core.NoLock, Scheme: "hmac-sha256",
		Nonce: nonce, Tag: tagOver(t, key, ref, blockSize, nonce),
		BlockSize: blockSize, NumBlocks: len(ref) / blockSize,
	}
}

func testImage(seed uint64, size, blockSize int) Image {
	g := mem.RandomGolden(size, blockSize, 1, rand.New(rand.NewPCG(seed, 99)))
	return ImageOfGolden(g)
}

func TestParseImageID(t *testing.T) {
	cases := []struct {
		in   string
		want ImageID
	}{
		{"", ImageID{}},
		{"sensor", ImageID{Name: "sensor"}},
		{"sensor@v3", ImageID{Name: "sensor", Version: 3}},
		{"a@b@v2", ImageID{Name: "a@b", Version: 2}},
		// An empty name with a version pins that version of the default.
		{"@v1", ImageID{Version: 1}},
	}
	for _, c := range cases {
		got, err := ParseImageID(c.in)
		if err != nil {
			t.Fatalf("ParseImageID(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseImageID(%q) = %+v, want %+v", c.in, got, c.want)
		}
		if got.String() != c.in {
			t.Fatalf("ParseImageID(%q).String() = %q", c.in, got.String())
		}
	}
	for _, bad := range []string{"sensor@", "sensor@v", "sensor@vx", "sensor@v0", "sensor@v-1", "sensor@v007", "sensor@v+7"} {
		if _, err := ParseImageID(bad); err == nil {
			t.Fatalf("ParseImageID(%q): want error", bad)
		}
	}
}

// TestImageSetAddRefusesUnresolvableNames: the registry takes only
// names a wire id can name back and a checkpoint can hold.
func TestImageSetAddRefusesUnresolvableNames(t *testing.T) {
	img := testImage(3, 1024, 256)
	for _, c := range []struct {
		name string
		ok   bool
	}{
		{"cam", true},
		{strings.Repeat("n", 243), true},
		{"", false},
		{"cam@v2", false}, // ParseImageID reads it as version 2 of "cam"
		{"a@b", false},
		{strings.Repeat("n", 244), false}, // "@v4294967295" would not fit a u8 length
		{strings.Repeat("n", 300), false},
	} {
		s := NewImageSet(ImageSetConfig{})
		id, err := s.Add(c.name, img)
		if (err == nil) != c.ok {
			t.Fatalf("Add(%d-byte name %.12q): err = %v, want ok=%v", len(c.name), c.name, err, c.ok)
		}
		if !c.ok {
			continue
		}
		// An accepted name survives the wire spelling at any version.
		id.Version = 1<<32 - 1
		if got, err := ParseImageID(id.String()); err != nil || got != id || len(id.String()) > 255 {
			t.Fatalf("%d-byte name does not round-trip: %v %v", len(c.name), got, err)
		}
	}
}

// FuzzParseImageID: parsing never panics, and an id it accepts has one
// spelling — String gives the input back and the input's parse gives the
// id back — so two wire ids that differ name two registry entries.
func FuzzParseImageID(f *testing.F) {
	for _, s := range []string{"", "a", "a@", "a@v", "a@v0", "a@v1", "a@v007", "@v3", "a@b@v2", "a@v4294967296"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		id, err := ParseImageID(s)
		if err != nil {
			return
		}
		if got := id.String(); got != s {
			t.Fatalf("ParseImageID(%q) = %+v, which String spells %q", s, id, got)
		}
		if back, err := ParseImageID(id.String()); err != nil || back != id {
			t.Fatalf("ParseImageID(%q) = %+v, %v; want %+v", id.String(), back, err, id)
		}
	})
}

func TestImageSetAddAndResolve(t *testing.T) {
	s := NewImageSet(ImageSetConfig{})
	key := []byte("fleet-key")
	sensor := testImage(1, 4096, 256)
	gateway := testImage(2, 8192, 256)
	if _, err := s.Add("sensor", sensor); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add("gateway", gateway); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add("sensor", sensor); err == nil {
		t.Fatal("duplicate Add accepted")
	}
	if def := s.Default(); def != (ImageID{Name: "sensor", Version: 1}) {
		t.Fatalf("default = %v", def)
	}

	nonce := []byte("n0")
	repS := reportOver(t, key, sensor.Bytes(), 256, nonce)
	repG := reportOver(t, key, gateway.Bytes(), 256, nonce)

	// Empty id resolves the default; zero version resolves current.
	for _, id := range []ImageID{{}, {Name: "sensor"}, {Name: "sensor", Version: 1}} {
		ok, err := s.Verify(key, id, repS, false)
		if err != nil || !ok {
			t.Fatalf("sensor via %v: ok=%v err=%v", id, ok, err)
		}
	}
	ok, err := s.Verify(key, ImageID{Name: "gateway"}, repG, false)
	if err != nil || !ok {
		t.Fatalf("gateway: ok=%v err=%v", ok, err)
	}
	// Cross-image: wrong tag, not an error.
	ok, err = s.Verify(key, ImageID{Name: "gateway"}, &core.Report{
		Nonce: nonce, Tag: repS.Tag, BlockSize: 256, NumBlocks: 8192 / 256,
	}, false)
	if err != nil || ok {
		t.Fatalf("sensor tag against gateway: ok=%v err=%v", ok, err)
	}
	// Unknown name and never-published version.
	if _, err := s.Verify(key, ImageID{Name: "ghost"}, repS, false); !errors.Is(err, ErrUnknownImage) {
		t.Fatalf("unknown name: %v", err)
	}
	if _, err := s.Verify(key, ImageID{Name: "sensor", Version: 9}, repS, false); !errors.Is(err, ErrUnknownImage) {
		t.Fatalf("future version: %v", err)
	}
	st := s.Stats()
	if st.UnknownProbes != 2 || st.StaleProbes != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestImageSetRotateGraceAndStale(t *testing.T) {
	s := NewImageSet(ImageSetConfig{Grace: 1})
	key := []byte("fleet-key")
	v1 := testImage(3, 4096, 256)
	if _, err := s.Add("sensor", v1); err != nil {
		t.Fatal(err)
	}
	// The OTA delta: flip one block.
	v2bytes := append([]byte(nil), v1.Bytes()...)
	copy(v2bytes[512:768], make([]byte, 256))
	v2 := ImageOfGolden(mem.NewGolden(v2bytes, 256, 1))

	id2, err := s.Rotate("sensor", v2)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != (ImageID{Name: "sensor", Version: 2}) {
		t.Fatalf("rotated id = %v", id2)
	}

	nonce := []byte("n1")
	repOld := reportOver(t, key, v1.Bytes(), 256, nonce)
	repNew := reportOver(t, key, v2bytes, 256, nonce)

	// Inside grace: the retired version still verifies — against the
	// pinned predecessor, so the OLD tag passes and the NEW tag fails.
	oldID := ImageID{Name: "sensor", Version: 1}
	if ok, err := s.Verify(key, oldID, repOld, false); err != nil || !ok {
		t.Fatalf("retired in grace: ok=%v err=%v", ok, err)
	}
	if ok, err := s.Verify(key, oldID, &core.Report{
		Nonce: nonce, Tag: repNew.Tag, BlockSize: 256, NumBlocks: 16,
	}, false); err != nil || ok {
		t.Fatalf("new tag against pinned predecessor: ok=%v err=%v", ok, err)
	}
	// Current resolves v2 (by name, by exact version, and as default).
	for _, id := range []ImageID{{}, {Name: "sensor"}, {Name: "sensor", Version: 2}} {
		if ok, err := s.Verify(key, id, repNew, false); err != nil || !ok {
			t.Fatalf("current via %v: ok=%v err=%v", id, ok, err)
		}
	}
	// The default's retired version is reachable with an empty name too
	// (a default-bound prover that pins the version it measured).
	if ok, err := s.Verify(key, ImageID{Version: 1}, repOld, false); err != nil || !ok {
		t.Fatalf("retired default version: ok=%v err=%v", ok, err)
	}

	// Advance past the grace window: the retired version must reject
	// with ErrStaleImage — never pass against either image.
	s.AdvanceEpoch() // epoch 1: retired at 1, still in grace (1 <= 1+1)
	if ok, err := s.Verify(key, oldID, repOld, false); err != nil || !ok {
		t.Fatalf("retired at grace edge: ok=%v err=%v", ok, err)
	}
	s.AdvanceEpoch() // epoch 2
	s.AdvanceEpoch() // epoch 3 > retired+grace: pruned
	if _, err := s.Verify(key, oldID, repOld, false); !errors.Is(err, ErrStaleImage) {
		t.Fatalf("retired past grace: %v", err)
	}
	if _, err := s.Verify(key, ImageID{Version: 1}, repOld, false); !errors.Is(err, ErrStaleImage) {
		t.Fatalf("retired default version past grace: %v", err)
	}
	// Still stale (not unknown) after pruning removed the entry.
	if s.Stats().Images != 1 {
		t.Fatalf("pruning left %d entries", s.Stats().Images)
	}
	// And the current version keeps verifying untouched.
	if ok, err := s.Verify(key, ImageID{}, repNew, false); err != nil || !ok {
		t.Fatalf("current after prune: ok=%v err=%v", ok, err)
	}
	st := s.Stats()
	if st.StaleProbes != 2 {
		t.Fatalf("stale probes = %d", st.StaleProbes)
	}
}

func TestImageSetRotateSeedsDigestCache(t *testing.T) {
	g1 := mem.RandomGolden(4096, 256, 1, rand.New(rand.NewPCG(7, 7)))
	b2 := append([]byte(nil), g1.Bytes()...)
	copy(b2[1024:1280], make([]byte, 256)) // one block changes
	g2 := mem.NewGolden(b2, 256, 1)

	s := NewImageSet(ImageSetConfig{})
	if _, err := s.Add("dev", ImageOfGolden(g1)); err != nil {
		t.Fatal(err)
	}
	// Warm every digest of the old image's shared cache.
	oc := inccache.SharedImage(g1, inccache.DigestHash(suite.SHA256))
	for i := 0; i < g1.NumBlocks(); i++ {
		oc.Digest(i)
	}
	if _, err := s.Rotate("dev", ImageOfGolden(g2)); err != nil {
		t.Fatal(err)
	}
	nc := inccache.SharedImage(g2, inccache.DigestHash(suite.SHA256))
	st := nc.Stats()
	if want := uint64(g1.NumBlocks() - 1); st.Seeded != want {
		t.Fatalf("seeded %d digests, want %d (all but the changed block)", st.Seeded, want)
	}
}

// TestImageSetRotationKeepsLinkSlot pins that a rotation hands the new
// version its predecessor's memo link slot: rotating one name however
// often never makes it share a slot with another name (Batch's links).
func TestImageSetRotationKeepsLinkSlot(t *testing.T) {
	s := NewImageSet(ImageSetConfig{})
	for _, name := range []string{"a", "b"} {
		if _, err := s.Add(name, testImage(1, 1024, 256)); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := s.BatchFor(ImageID{Name: "a"})
	b, _ := s.BatchFor(ImageID{Name: "b"})
	if a.slot == b.slot {
		t.Fatalf("two names share link slot %d", a.slot)
	}
	for v := 2; v <= 2*len(links{}); v++ {
		if _, err := s.Rotate("a", testImage(uint64(v), 1024, 256)); err != nil {
			t.Fatal(err)
		}
		cur, _ := s.BatchFor(ImageID{Name: "a"})
		if cur.slot != a.slot {
			t.Fatalf("version %d of a took slot %d, its first version %d", v, cur.slot, a.slot)
		}
	}
}
