package rattd

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"saferatt/internal/core"
	"saferatt/internal/mem"
	"saferatt/internal/transport"
	"saferatt/internal/verifier"
)

// multiImageServer builds a Server over a two-class registry:
// "sensor" (the default) and "gateway", both golden-backed so rotation
// exercises the derived digest-cache path.
func multiImageServer(t testing.TB, grace uint64) (*Server, *mem.Golden, *mem.Golden) {
	t.Helper()
	sensor := mem.NewGolden(GoldenImage(7, testMem, testBlock), testBlock, 1)
	gateway := mem.NewGolden(GoldenImage(8, testMem, testBlock), testBlock, 1)
	set := verifier.NewImageSet(verifier.ImageSetConfig{Grace: grace})
	if _, err := set.Add("sensor", verifier.ImageOfGolden(sensor)); err != nil {
		t.Fatal(err)
	}
	if _, err := set.Add("gateway", verifier.ImageOfGolden(gateway)); err != nil {
		t.Fatal(err)
	}
	s, err := Serve(transport.NewLocal(), Config{Images: set})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, sensor, gateway
}

func imageProver(t testing.TB, name string, g *mem.Golden, imageName string) *Prover {
	t.Helper()
	p, err := NewProver(name, DefaultKey, g.Bytes(), testBlock)
	if err != nil {
		t.Fatal(err)
	}
	p.ImageName = imageName
	return p
}

// collect ships one self-measurement collection for counters
// [from, to] under the given wire image id.
func collect(t testing.TB, s *Server, p *Prover, image string, from, to uint64) {
	t.Helper()
	var reports []core.Report
	for c := from; c <= to; c++ {
		reports = append(reports, selfMeasure(t, p, c))
	}
	s.IngestImage(p.Name, transport.KindCollection, image, reports)
}

// TestMultiImageVerification: two device classes verify through one
// registry, each against its own golden image, and an imageless bundle
// is served by the default image.
func TestMultiImageVerification(t *testing.T) {
	s, sensor, gateway := multiImageServer(t, 1)
	ps := imageProver(t, "sns-0", sensor, "sensor")
	pg := imageProver(t, "gtw-0", gateway, "gateway")

	collect(t, s, ps, "sensor", 1, 3)
	collect(t, s, pg, "gateway", 1, 3)
	c := s.Counts()
	if c.Accepted != 6 || c.Rejected != 0 {
		t.Fatalf("heterogeneous accept: %+v", c)
	}
	// The default image serves imageless bundles: a sensor-class prover
	// that never names its image still verifies.
	p2 := imageProver(t, "sns-1", sensor, "")
	collect(t, s, p2, "", 1, 2)
	if c := s.Counts(); c.Accepted != 8 {
		t.Fatalf("default-image accept: %+v", c)
	}
	// A gateway-class prover that omits its image verifies against the
	// default and fails: wrong image, never a spurious pass.
	p3 := imageProver(t, "gtw-1", gateway, "")
	collect(t, s, p3, "", 1, 2)
	if c := s.Counts(); c.Accepted != 8 || c.Rejected != 2 {
		t.Fatalf("cross-image reject: %+v", c)
	}
}

// TestImageBindingMismatch: a prover bound to one image cannot claim
// another; the whole bundle rejects, counted once a report, and the
// binding and its window survive.
func TestImageBindingMismatch(t *testing.T) {
	s, _, gateway := multiImageServer(t, 1)
	p := imageProver(t, "gtw-0", gateway, "gateway")
	collect(t, s, p, "gateway", 1, 2) // binds gateway
	if c := s.Counts(); c.Accepted != 2 {
		t.Fatalf("bind: %+v", c)
	}
	// A later bundle claiming a different image rejects wholesale —
	// every report counted exactly once — without moving window state.
	collect(t, s, p, "sensor", 3, 5)
	c := s.Counts()
	if c.Accepted != 2 || c.Rejected != 3 {
		t.Fatalf("mismatch reject: %+v", c)
	}
	// The binding survives: the same counters under the right name (or
	// no name at all — the binding fills it in) are still fresh.
	collect(t, s, p, "", 3, 5)
	if c := s.Counts(); c.Accepted != 5 || c.Rejected != 3 {
		t.Fatalf("post-mismatch accept: %+v", c)
	}
	// Malformed image ids reject per report too.
	collect(t, s, p, "gateway@vx", 6, 6)
	if c := s.Counts(); c.Rejected != 4 {
		t.Fatalf("malformed id: %+v", c)
	}
}

// TestUnverifiedClaimBindsNothing: a prover's image binding is stored
// only by the commit of a report that verified under the claim. A frame
// under an honest prover's name that verifies nothing — report-less,
// or forged — sent before the prover's own first bundle binds nothing,
// so it cannot deny that prover, and the checkpoint holds no trace of
// it.
func TestUnverifiedClaimBindsNothing(t *testing.T) {
	s, sensor, gateway := multiImageServer(t, 1)

	// A report-less bundle claiming an image nobody registered, then the
	// honest gateway prover's first bundle.
	s.IngestImage("prv-gw", transport.KindCollection, "bogus", nil)
	collect(t, s, imageProver(t, "prv-gw", gateway, "gateway"), "gateway", 1, 2)
	if c := s.Counts(); c.Accepted != 2 || c.Rejected != 0 {
		t.Fatalf("honest gateway bundle after a report-less bogus claim: %+v", c)
	}

	// A forged collection claiming the registered gateway image under a
	// default-class prover's name (sensor-measured reports fail the
	// gateway tags), then that prover's own imageless bundle.
	ps := imageProver(t, "prv-sns", sensor, "")
	collect(t, s, ps, "gateway", 1, 2)
	collect(t, s, ps, "", 1, 2)
	if c := s.Counts(); c.Accepted != 4 || c.Rejected != 2 {
		t.Fatalf("default-class prover after a forged gateway claim: %+v", c)
	}

	// The same forgery on the SeED path, against a prover a collection
	// has already enrolled.
	ps2 := imageProver(t, "prv-sns2", sensor, "")
	collect(t, s, ps2, "", 1, 1)
	forged, err := ps2.SeedReport(1)
	if err != nil {
		t.Fatal(err)
	}
	s.IngestImage(ps2.Name, transport.KindSeedReport, "gateway", []core.Report{*forged})
	collect(t, s, ps2, "", 2, 2)
	if c := s.Counts(); c.Accepted != 6 || c.Rejected != 3 {
		t.Fatalf("default-class prover after a forged SeED gateway claim: %+v", c)
	}

	if got := s.Checkpoint().Images; len(got) != 1 || got["prv-gw"] != "gateway" {
		t.Fatalf("checkpoint bindings = %v, want only prv-gw -> gateway", got)
	}
}

// TestRacingClaimsBindOnce: two clean bundles under one new name race
// with different claims, over two registered images of the same content
// so that both verify. The commit binds the first to get there and
// refuses the other whole, so each prover ends bound to one image with
// one bundle's counters committed.
func TestRacingClaimsBindOnce(t *testing.T) {
	gateway := mem.NewGolden(GoldenImage(8, testMem, testBlock), testBlock, 1)
	set := verifier.NewImageSet(verifier.ImageSetConfig{Grace: 1})
	if _, err := set.Add("sensor", verifier.ImageOfGolden(mem.NewGolden(GoldenImage(7, testMem, testBlock), testBlock, 1))); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gateway", "gateway-b"} {
		if _, err := set.Add(name, verifier.ImageOfGolden(gateway)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Serve(transport.NewLocal(), Config{Images: set})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const names = 300
	type bundle struct {
		name    string
		reports []core.Report
	}
	var a, b []bundle
	for i := 0; i < names; i++ {
		p := imageProver(t, fmt.Sprintf("race-%03d", i), gateway, "")
		a = append(a, bundle{p.Name, []core.Report{selfMeasure(t, p, 1), selfMeasure(t, p, 2)}})
		b = append(b, bundle{p.Name, []core.Report{selfMeasure(t, p, 3), selfMeasure(t, p, 4)}})
	}
	done := make(chan struct{})
	go func() {
		for _, x := range b {
			s.IngestImage(x.name, transport.KindCollection, "gateway-b", x.reports)
		}
		close(done)
	}()
	for _, x := range a {
		s.IngestImage(x.name, transport.KindCollection, "gateway", x.reports)
	}
	<-done
	c := s.Counts()
	if c.Accepted != 2*names || c.Verdicts[verifier.ReasonImageMismatch] != 2*names {
		t.Fatalf("racing claims: %+v, want %d accepted and %d refused as mismatched", c, 2*names, 2*names)
	}
	if got := s.Checkpoint().Images; len(got) != names {
		t.Fatalf("%d of %d provers bound", len(got), names)
	}
}

// TestRotationGraceWindow pins the attestation-during-update story:
// a report pinned to the retired version verifies inside the grace
// window, rejects with a distinct stale-image outcome past it, and a
// mid-update device matching neither version rejects exactly once per
// report with replays deduplicated exactly-once.
func TestRotationGraceWindow(t *testing.T) {
	s, sensor, _ := multiImageServer(t, 1)

	// The OTA: one block of the sensor image changes.
	v2bytes := append([]byte(nil), sensor.Bytes()...)
	copy(v2bytes[2*testBlock:3*testBlock], make([]byte, testBlock))
	v2 := mem.NewGolden(v2bytes, testBlock, 1)
	if d := v2.DiffBlocks(sensor); len(d) != 1 || d[0] != 2 {
		t.Fatalf("diff = %v", d)
	}

	old := imageProver(t, "sns-old", sensor, "sensor@v1")
	fresh := imageProver(t, "sns-new", v2, "sensor@v2")

	id, err := s.Images().Rotate("sensor", verifier.ImageOfGolden(v2))
	if err != nil {
		t.Fatal(err)
	}
	if id.Version != 2 {
		t.Fatalf("rotated to %v", id)
	}

	// Inside grace: the not-yet-updated device keeps verifying against
	// the pinned predecessor; the updated device against the current.
	collect(t, s, old, "sensor@v1", 1, 2)
	collect(t, s, fresh, "sensor@v2", 1, 2)
	if c := s.Counts(); c.Accepted != 4 || c.Rejected != 0 {
		t.Fatalf("in-grace: %+v", c)
	}

	// A mid-update device: the block the OTA touches is half-flashed,
	// so its memory matches neither version. Both claims reject — once
	// per report, never a spurious pass.
	midBytes := append([]byte(nil), sensor.Bytes()...)
	copy(midBytes[2*testBlock:2*testBlock+testBlock/2], make([]byte, testBlock/2))
	mid, err := NewProver("sns-mid", DefaultKey, midBytes, testBlock)
	if err != nil {
		t.Fatal(err)
	}
	midRep := []core.Report{selfMeasure(t, mid, 1)}
	s.IngestImage(mid.Name, transport.KindCollection, "sensor@v1", midRep)
	s.IngestImage(mid.Name, transport.KindCollection, "sensor@v2", append([]core.Report(nil), midRep...))
	c := s.Counts()
	if c.Accepted != 4 || c.Rejected != 2 {
		t.Fatalf("mid-update reject: %+v", c)
	}
	if c.Replays != 0 {
		t.Fatalf("rejected mid-update reports consumed counters: %+v", c)
	}
	// After the device finishes flashing, the same counter is still
	// fresh (a rejected report never consumes it) — and a re-send after
	// acceptance replays exactly once.
	done, err := NewProver("sns-mid", DefaultKey, v2bytes, testBlock)
	if err != nil {
		t.Fatal(err)
	}
	doneRep := []core.Report{selfMeasure(t, done, 1)}
	s.IngestImage(done.Name, transport.KindCollection, "sensor@v2", doneRep)
	s.IngestImage(done.Name, transport.KindCollection, "sensor@v2", append([]core.Report(nil), doneRep...))
	c = s.Counts()
	if c.Accepted != 5 || c.Replays != 1 {
		t.Fatalf("post-update replay: %+v", c)
	}

	// Past grace: the retired version is a distinct stale-image reject.
	s.Images().AdvanceEpoch() // epoch 1 (retired pinned at 1, in grace)
	s.Images().AdvanceEpoch() // epoch 2 (edge of grace)
	s.Images().AdvanceEpoch() // epoch 3 (> retired+grace)
	collect(t, s, old, "sensor@v1", 3, 3)
	c = s.Counts()
	if c.Accepted != 5 || c.Rejected != 4 {
		t.Fatalf("stale reject: %+v", c)
	}
	if st := s.Images().Stats(); st.StaleProbes != 1 {
		t.Fatalf("stale probes = %d", st.StaleProbes)
	}
	// And the rotation seeded the new version's digest cache instead of
	// re-hashing the whole image (checked structurally in the verifier
	// tests; here just confirm the registry pruned the retired entry).
	if st := s.Images().Stats(); st.Images != 2 {
		t.Fatalf("registry holds %d entries after prune", st.Images)
	}
}

// TestRotationVerdictReasons drives the stale/mismatch paths over a
// real transport and asserts the distinct verdict reasons.
func TestRotationVerdictReasons(t *testing.T) {
	w := simDaemonWorld(t)
	defer w.close()
	// Rebuild the daemon's registry handle: rotate the default image.
	old := GoldenImage(7, testMem, testBlock)
	v2bytes := append([]byte(nil), old...)
	copy(v2bytes[2*testBlock:3*testBlock], make([]byte, testBlock))
	if _, err := w.srv.Images().Rotate(DefaultImageName, verifier.ImageOf(v2bytes, testBlock)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		w.srv.Images().AdvanceEpoch()
	}

	box := newProverBox(t, w, "prv-stale")
	prv, err := NewProver("prv-stale", DefaultKey, old, testBlock)
	if err != nil {
		t.Fatal(err)
	}
	r := selfMeasure(t, prv, 1)
	box.send(t, transport.Msg{Kind: transport.KindCollection, Image: "default@v1",
		Reports: []*core.Report{&r}})
	v := box.await(t, transport.KindVerdict)
	if v.OK || v.Reason != verifier.ReasonStaleImage.String() {
		t.Fatalf("stale verdict: ok=%v reason=%q", v.OK, v.Reason)
	}
	// Unknown image name: its own reason.
	r2 := selfMeasure(t, prv, 2)
	box.send(t, transport.Msg{Kind: transport.KindCollection, Image: "ghost",
		Reports: []*core.Report{&r2}})
	v = box.await(t, transport.KindVerdict)
	if v.OK || v.Reason != verifier.ReasonUnknownImage.String() {
		t.Fatalf("unknown verdict: ok=%v reason=%q", v.OK, v.Reason)
	}
	// The binding from the first contact ("default", normalized away)
	// conflicts with a later named claim.
	r3 := selfMeasure(t, prv, 3)
	box.send(t, transport.Msg{Kind: transport.KindCollection, Image: "default@v2",
		Reports: []*core.Report{&r3}})
	v = box.await(t, transport.KindVerdict)
	if v.OK {
		t.Fatalf("old-image device accepted against v2: %+v", v)
	}
}

// TestCheckpointCarriesImageBindings pins checkpoint codec v4: prover
// image bindings survive WriteCheckpoint → Restore, pre-v4 files still
// decode, and a binding naming an image the restoring registry lacks
// falls back to the default and is counted.
func TestCheckpointCarriesImageBindings(t *testing.T) {
	s, sensor, gateway := multiImageServer(t, 1)
	ps := imageProver(t, "sns-0", sensor, "sensor")
	pg := imageProver(t, "gtw-0", gateway, "gateway")
	collect(t, s, ps, "sensor", 1, 2)
	collect(t, s, pg, "gateway", 1, 2)

	cp := s.Checkpoint()
	// "sensor" is the default: normalized away, so only the gateway
	// binding is persisted.
	if len(cp.Images) != 1 || cp.Images["gtw-0"] != "gateway" {
		t.Fatalf("checkpoint images = %v", cp.Images)
	}

	// Round-trip through the stream codec.
	var buf writerBuf
	if _, err := cp.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeCheckpoint(buf.b)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Images) != 1 || dec.Images["gtw-0"] != "gateway" {
		t.Fatalf("decoded images = %v", dec.Images)
	}

	// Restore into a fresh server with the same registry: the gateway
	// prover's binding survives, so an imageless bundle verifies
	// against gateway content.
	s2, _, _ := multiImageServer(t, 1)
	s2.Restore(dec)
	pg2 := imageProver(t, "gtw-0", gateway, "")
	collect(t, s2, pg2, "", 3, 4)
	if c := s2.Counts(); c.Accepted != 2 || c.Rejected != 0 {
		t.Fatalf("restored binding: %+v", c)
	}
	// Replay protection restored too.
	collect(t, s2, pg2, "", 1, 2)
	if c := s2.Counts(); c.Replays != 2 {
		t.Fatalf("restored windows: %+v", c)
	}

	// Restore into a single-image server: the gateway binding names an
	// unknown image, falls back to the default, and is counted.
	s3 := localServer(t, Config{})
	s3.Restore(dec)
	if s3.ImageFallbacks() != 1 {
		t.Fatalf("fallbacks = %d", s3.ImageFallbacks())
	}
}

// TestCheckpointOtherVersionsRefused pins that one checkpoint version
// exists: a homogeneous fleet stores no image bindings, a file with
// bindings round-trips, and the same bytes under any other version byte
// — as the base or as a delta of a chain — are refused by name, never
// misparsed.
func TestCheckpointOtherVersionsRefused(t *testing.T) {
	s := localServer(t, Config{})
	image := GoldenImage(7, testMem, testBlock)
	for i := 0; i < 3; i++ {
		p, err := NewProver(fmt.Sprintf("prv%05d", i), DefaultKey, image, testBlock)
		if err != nil {
			t.Fatal(err)
		}
		var reports []core.Report
		for c := uint64(1); c <= 2; c++ {
			reports = append(reports, selfMeasure(t, p, c))
		}
		s.Ingest(p.Name, transport.KindCollection, reports)
	}
	cp := s.Checkpoint()
	if cp.Images != nil {
		t.Fatalf("homogeneous fleet stored bindings: %v", cp.Images)
	}
	cp.Images = map[string]string{"prv00000": "gateway"}
	var buf writerBuf
	if _, err := cp.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeCheckpoint(buf.b)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Images["prv00000"] != "gateway" || len(dec.Erasmus) != len(cp.Erasmus) {
		t.Fatalf("round trip: images %v, %d windows", dec.Images, len(dec.Erasmus))
	}
	for ver := 0; ver < 256; ver++ {
		if ver == CheckpointVersion {
			continue
		}
		other := append([]byte(nil), buf.b...)
		other[2] = byte(ver)
		want := fmt.Sprintf("unsupported checkpoint version %d (this build reads only %d)", ver, CheckpointVersion)
		if _, err := DecodeCheckpoint(other); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version %d: err = %v, want %q", ver, err, want)
		}
		if _, _, err := DecodeChain(other); err == nil {
			t.Fatalf("version %d accepted as a chain base", ver)
		}
		// As a delta it is dropped, like any unreadable link.
		if _, st, err := DecodeChain(buf.b, other); err != nil || st.Applied != 0 || st.Dropped != 1 {
			t.Fatalf("version %d as a delta: %+v, %v", ver, st, err)
		}
	}
}

// writerBuf is a minimal io.Writer collecting bytes.
type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// TestServerVerifyMultiImageZeroAllocs gates the named-image accept
// path at zero heap allocations per report: the wire image id is
// parsed alloc-free, the binding check and registry resolve are map
// probes on value keys, and the rest is the single-image steady path.
func TestServerVerifyMultiImageZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race suite")
	}
	const n = 512
	s, sensor, gateway := multiImageServer(t, 1)
	goldens := []*mem.Golden{sensor, gateway}
	classes := []string{"sensor", "gateway"}

	bundles := make([][]core.Report, n)
	names := make([]string, n)
	for i := 0; i < n; i++ {
		p := imageProver(t, fmt.Sprintf("prv%05d", i), goldens[i%2], classes[i%2])
		names[i] = p.Name
		s.IngestImage(p.Name, transport.KindCollection, classes[i%2],
			[]core.Report{selfMeasure(t, p, 1)})
		bundles[i] = []core.Report{selfMeasure(t, p, 2)}
	}
	// Warm both classes' counter-2 expected tags and the scratch pool.
	s.IngestImage(names[0], transport.KindCollection, classes[0], bundles[0])
	s.IngestImage(names[1], transport.KindCollection, classes[1], bundles[1])

	i := 2
	avg := testing.AllocsPerRun(n-3, func() {
		s.IngestImage(names[i], transport.KindCollection, classes[i%2], bundles[i])
		i++
	})
	if avg != 0 {
		t.Fatalf("multi-image verify path allocates %.2f allocs/op, want 0", avg)
	}
	if c := s.Counts(); c.Accepted != uint64(2*n) {
		t.Fatalf("accepted %d, want %d (a measured report was rejected)", c.Accepted, 2*n)
	}
}

// interleavedRatio times two arms round by round — base, then arm, on
// the same round number — and returns the median of the per-round
// arm/base ratios with each arm's total time. Adjacent rounds share
// clock drift, GC weather and whatever else the host is running, and
// the median discards the rounds a burst of it hit: a ratio of sums
// over a few milliseconds moves by more than the budgets below when
// one arm is preempted once.
func interleavedRatio(from, to int, base, arm func(round int)) (ratio float64, baseNS, armNS int64) {
	ratios := make([]float64, 0, to-from)
	for r := from; r < to; r++ {
		t0 := time.Now()
		base(r)
		b := time.Since(t0).Nanoseconds()
		t0 = time.Now()
		arm(r)
		a := time.Since(t0).Nanoseconds()
		baseNS, armNS = baseNS+b, armNS+a
		ratios = append(ratios, float64(a)/float64(b))
	}
	sort.Float64s(ratios)
	return ratios[len(ratios)/2], baseNS, armNS
}

// TestServerVerifyMultiImageOverhead gates the heterogeneous-fleet
// verify cost: what routing every bundle through the registry by wire
// image id adds — four expected tags a round against one, an image id
// parsed, a binding checked and a registry probe a bundle — may make a
// round of the fleet's bundles cost at most maxRoundRatio times the
// same round on a single-image server.
//
// The bound is a ratio over a fixed amount of work: a round is one
// bundle from each of the fleet's provers in both arms, and the two
// arms run round by round interleaved, so clock drift, GC weather and
// the host's speed hit both alike. It used to be an extra in
// nanoseconds against a fixed share of the single arm as it stood when
// the gate was set, and that budget shrank whenever the host ran fast
// while the extra did not. The ratio does not move with the host: it
// read 1.13–1.15 in eight lone runs on a 2-vCPU host whose single arm
// ran at 206 ns a report in some and 444 ns in others, and 1.19–1.21
// with the named-image lookup done twice. A change that makes the
// single-image path cheaper and leaves the named route's cost where it
// was raises the ratio; it restates the bound, saying so.
func TestServerVerifyMultiImageOverhead(t *testing.T) {
	const maxRoundRatio = 1.17
	if raceEnabled {
		t.Skip("race instrumentation distorts timing; the gate runs in the non-race suite")
	}
	const fleet = 2048
	// The median of 48 rounds let a few preempted rounds carry it past
	// the bound in whole-suite runs; 400 rounds take about a second.
	const rounds = 400
	const warmup = 2

	single := localServer(t, Config{Stripes: 8})
	image := GoldenImage(7, testMem, testBlock)
	sNames := make([]string, fleet)
	for i := 0; i < fleet; i++ {
		p, err := NewProver(fmt.Sprintf("sprv%05d", i), DefaultKey, image, testBlock)
		if err != nil {
			t.Fatal(err)
		}
		sNames[i] = p.Name
		single.Ingest(p.Name, transport.KindCollection, []core.Report{selfMeasure(t, p, 1)})
	}

	classes := []string{"sensor", "actuator", "gateway", "camera"}
	set := verifier.NewImageSet(verifier.ImageSetConfig{KeepEpochs: 64})
	images := make([][]byte, len(classes))
	for c, name := range classes {
		images[c] = GoldenImage(uint64(7+c), testMem, testBlock)
		if _, err := set.Add(name, verifier.ImageOf(images[c], testBlock)); err != nil {
			t.Fatal(err)
		}
	}
	multi, err := Serve(transport.NewLocal(), Config{Images: set, Stripes: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(multi.Close)
	mNames := make([]string, fleet)
	for i := 0; i < fleet; i++ {
		c := i % len(classes)
		p, err := NewProver(fmt.Sprintf("mprv%05d", i), DefaultKey, images[c], testBlock)
		if err != nil {
			t.Fatal(err)
		}
		mNames[i] = p.Name
		multi.IngestImage(p.Name, transport.KindCollection, classes[c], []core.Report{selfMeasure(t, p, 1)})
	}

	// Template bundles per counter: the single arm shares one, the
	// multi arm one per class (shared key ⇒ identical same-class
	// reports for a given counter).
	total := warmup + rounds
	sBundle := make([][]core.Report, total)
	mBundle := make([][][]core.Report, len(classes))
	sp, err := NewProver("tmpl", DefaultKey, image, testBlock)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < total; r++ {
		sBundle[r] = []core.Report{selfMeasure(t, sp, uint64(2+r))}
	}
	for c := range classes {
		p, err := NewProver("tmpl", DefaultKey, images[c], testBlock)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < total; r++ {
			mBundle[c] = append(mBundle[c], []core.Report{selfMeasure(t, p, uint64(2+r))})
		}
	}

	singleRound := func(r int) {
		for i := 0; i < fleet; i++ {
			single.Ingest(sNames[i], transport.KindCollection, sBundle[r])
		}
	}
	multiRound := func(r int) {
		for i := 0; i < fleet; i++ {
			c := i % len(classes)
			multi.IngestImage(mNames[i], transport.KindCollection, classes[c], mBundle[c][r])
		}
	}
	for r := 0; r < warmup; r++ {
		singleRound(r)
		multiRound(r)
	}
	ratio, sNS, mNS := interleavedRatio(warmup, total, singleRound, multiRound)
	if c := single.Counts(); c.Rejected != 0 {
		t.Fatalf("single arm rejected %d", c.Rejected)
	}
	if c := multi.Counts(); c.Rejected != 0 {
		t.Fatalf("multi arm rejected %d", c.Rejected)
	}
	ops := int64(fleet * rounds)
	t.Logf("single %.0f ns/report, multi-image %.0f ns/report (median round %.3fx)",
		float64(sNS)/float64(ops), float64(mNS)/float64(ops), ratio)
	if ratio > maxRoundRatio {
		t.Fatalf("a round of named-image bundles costs %.3fx the single-image round (median of %d), bound %.2fx", ratio, rounds, maxRoundRatio)
	}
}
