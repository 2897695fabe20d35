package rattd

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"saferatt/internal/core"
	"saferatt/internal/transport"
	"saferatt/internal/verifier"
)

// perReportOracle is the collection handler as it stood before a bundle
// was judged as one unit: every report checked, verified and committed
// on its own, the image id resolved per report, the nonce memo admitted
// to between reports, each verdict counted as it falls. It holds no
// Server — one bare Freshness a prover, a registry, a memo and the
// counters — and is what TestCollectionBundleMatchesPerReport holds the
// bundle path to.
type perReportOracle struct {
	images *verifier.ImageSet
	nonces *verifier.NonceMemo
	fresh  map[string]*verifier.Freshness
	cnt    Counts
}

func (o *perReportOracle) collect(from string, id verifier.ImageID, reports []core.Report) (why []verifier.Reason, verdict string) {
	fresh := o.fresh[from]
	if fresh == nil {
		fresh = new(verifier.Freshness)
		o.fresh[from] = fresh
	}
	first := verifier.ReasonOK
	var firstErr error
	if len(reports) == 0 {
		first = verifier.ReasonEmptyCollection
	}
	var nonce []byte
	var prevCtr uint64
	for i := range reports {
		r := &reports[i]
		want, memoised := o.nonces.Nonce(nonce, r.Counter)
		if !memoised {
			nonce = want
		}
		w := fresh.CheckErasmus(r, want, i == 0, prevCtr)
		var err error
		if w == verifier.ReasonOK {
			if w, err = o.verify(r, id); w == verifier.ReasonOK {
				if w = fresh.CommitErasmus(r.Counter); w == verifier.ReasonOK && !memoised {
					o.nonces.Admit(r.Counter)
				}
			}
		}
		switch {
		case w == verifier.ReasonOK:
			o.cnt.Accepted++
		case w.IsReplay():
			o.cnt.Replays++
			fallthrough
		default:
			o.cnt.Rejected++
		}
		if first == verifier.ReasonOK {
			first, firstErr = w, err
		}
		why = append(why, w)
		prevCtr = r.Counter
	}
	return why, first.Text(firstErr)
}

func (o *perReportOracle) verify(r *core.Report, id verifier.ImageID) (verifier.Reason, error) {
	if r.RegionCount > 0 || r.Data != nil {
		return verifier.ReasonRegionUnserved, nil
	}
	ok, err := o.images.Verify(DefaultKey, id, r, false)
	return verifier.TagReason(ok, err), err
}

// rotatedRegistry builds a registry whose one image has been rotated
// twice: "sensor@v1" is retired past grace (stale), v2 is in grace, v3
// is current and nothing later was ever published.
func rotatedRegistry(t testing.TB, keep int) (*verifier.ImageSet, []byte) {
	t.Helper()
	set := verifier.NewImageSet(verifier.ImageSetConfig{KeepEpochs: keep})
	if _, err := set.Add("sensor", verifier.ImageOf(GoldenImage(5, testMem, testBlock), testBlock)); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		set.AdvanceEpoch()
	}
	if _, err := set.Rotate("sensor", verifier.ImageOf(GoldenImage(6, testMem, testBlock), testBlock)); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		set.AdvanceEpoch() // v1 falls out of grace
	}
	cur := GoldenImage(7, testMem, testBlock)
	if _, err := set.Rotate("sensor", verifier.ImageOf(cur, testBlock)); err != nil {
		t.Fatal(err)
	}
	return set, cur
}

// bundleRig feeds the same bundles to a Server and to the oracle and
// compares everything either can be asked after each one.
type bundleRig struct {
	t      *testing.T
	rng    *rand.Rand
	srv    *Server
	tr     *transport.Local
	sc     ingestScratch
	oracle *perReportOracle
	tmpl   *Prover
	honest map[uint64]core.Report // the fleet shares one key: a report depends on its counter only

	name    string // the prover the rig speaks as
	verdict string // the Server's last verdict to it
	next    uint64 // its lowest counter not yet used
	bundles int
}

func newBundleRig(t *testing.T, seed int64, keep int) *bundleRig {
	t.Helper()
	g := &bundleRig{t: t, rng: rand.New(rand.NewSource(seed)), tr: transport.NewLocal(), honest: map[uint64]core.Report{}}
	set, image := rotatedRegistry(t, keep)
	var err error
	if g.srv, err = Serve(g.tr, Config{Images: set, KeepEpochs: keep}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.srv.Close)
	oset, _ := rotatedRegistry(t, keep)
	g.oracle = &perReportOracle{images: oset, nonces: verifier.NewNonceMemo(DefaultKey, keep), fresh: map[string]*verifier.Freshness{}}
	if g.tmpl, err = NewProver("tmpl", DefaultKey, image, testBlock); err != nil {
		t.Fatal(err)
	}
	return g
}

// enter switches to a prover neither side has seen, its counters
// starting at base.
func (g *bundleRig) enter(name string, base uint64) {
	g.t.Helper()
	g.name, g.next = name, base
	if err := g.tr.Bind(name, func(m transport.Msg) { g.verdict = m.Reason }); err != nil {
		g.t.Fatal(err)
	}
}

// report returns a private copy of the honest report for ctr.
func (g *bundleRig) report(ctr uint64) core.Report {
	r, ok := g.honest[ctr]
	if !ok {
		r = selfMeasure(g.t, g.tmpl, ctr)
		g.honest[ctr] = r
	}
	r.Nonce = slices.Clone(r.Nonce)
	r.Tag = slices.Clone(r.Tag)
	return r
}

// fresh returns honest reports for the next n unused counters.
func (g *bundleRig) fresh(n int) []core.Report {
	out := make([]core.Report, n)
	for i := range out {
		out[i] = g.report(g.next)
		g.next++
	}
	return out
}

// The faults a report can carry.
const (
	faultForgedTag = iota
	faultNonceBit
	faultRelabelled
	faultRegion
	faultGeometry
	nFaults
)

func spoil(r *core.Report, fault int) {
	switch fault {
	case faultForgedTag:
		r.Tag[len(r.Tag)-1] ^= 0x80
	case faultNonceBit:
		r.Nonce[0] ^= 1
	case faultRelabelled:
		r.Counter += 3 // an honest measurement under another counter
	case faultRegion:
		r.RegionStart, r.RegionCount = 1, 2
	case faultGeometry:
		r.NumBlocks++
	}
}

// ingest gives one bundle to both sides and compares them.
func (g *bundleRig) ingest(what string, image string, reports []core.Report) {
	g.t.Helper()
	g.bundles++
	id, err := verifier.ParseImageID(image)
	if err != nil {
		g.t.Fatal(err)
	}
	g.verdict = "(no verdict)"
	first := g.srv.collect(&g.sc, g.name, id, reports)
	if !strings.HasPrefix(g.verdict, first.String()) {
		g.t.Fatalf("collect returned %q and sent %q", first, g.verdict)
	}
	wantWhy, wantVerdict := g.oracle.collect(g.name, id, slices.Clone(reports))

	at := fmt.Sprintf("bundle %d (%s, %d reports, image %q)", g.bundles, what, len(reports), image)
	if len(g.sc.why) != len(wantWhy) {
		g.t.Fatalf("%s: %d verdicts for %d reports", at, len(g.sc.why), len(wantWhy))
	}
	for i, want := range wantWhy {
		if got := g.sc.why[i]; got != want {
			g.t.Fatalf("%s: report %d (counter %d): bundle path says %q, per-report loop %q", at, i, reports[i].Counter, got, want)
		}
	}
	if g.verdict != wantVerdict {
		g.t.Fatalf("%s: verdict %q, per-report loop %q", at, g.verdict, wantVerdict)
	}
	if got := g.srv.Counts(); got != g.oracle.cnt {
		g.t.Fatalf("%s: counts %+v, per-report loop %+v", at, got, g.oracle.cnt)
	}
	st := g.srv.stripeFor(g.name)
	st.mu.Lock()
	got := g.srv.get(g.name).fresh
	st.mu.Unlock()
	if want := *g.oracle.fresh[g.name]; got != want {
		g.t.Fatalf("%s: freshness %+v, per-report loop %+v", at, got, want)
	}
	if got, want := g.srv.nonces.Counters(), g.oracle.nonces.Counters(); !slices.Equal(got, want) {
		g.t.Fatalf("%s: nonce memo holds %v, per-report loop %v", at, got, want)
	}
}

// positions picks where in a depth-deep bundle to plant a fault: every
// position of a short one, the ends and a few in between of a long one.
func (g *bundleRig) positions(depth int) []int {
	if depth <= 17 {
		out := make([]int, depth)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := []int{0, depth - 1}
	for len(out) < 6 {
		out = append(out, g.rng.Intn(depth))
	}
	return out
}

// script runs every shape of history at one depth as one prover.
func (g *bundleRig) script(depth int) {
	const good = "sensor@v3"
	g.ingest("clean", "", g.fresh(depth))
	prev := g.fresh(depth)
	g.ingest("clean, exact version", good, prev)
	g.ingest("replay of the previous bundle", "", slices.Clone(prev))

	if depth > 1 {
		b := g.fresh(depth)
		for n := 1 + depth/8; n > 0; n-- {
			i := 1 + g.rng.Intn(depth-1)
			b[i] = g.report(b[i-1].Counter) // a duplicate inside the bundle
		}
		g.ingest("duplicates inside", "", b)

		b = g.fresh(depth)
		g.rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		g.ingest("counters out of order", "", b)
	}
	for fault := 0; fault < nFaults; fault++ {
		for _, at := range g.positions(depth) {
			b := g.fresh(depth)
			spoil(&b[at], fault)
			g.ingest(fmt.Sprintf("fault %d at %d", fault, at), "", b)
		}
	}
	// Image policy: a refused version consumes nothing, so the same
	// counters verify afterwards.
	b := g.fresh(depth)
	g.ingest("stale version", "sensor@v1", b)
	g.ingest("unknown version", "sensor@v7", b)
	g.ingest("in-grace version, wrong image", "sensor@v2", b)
	g.ingest("the same counters, current version", good, b)

	// Anything goes: counters drawn around the cursor (so some replay,
	// some skip ahead, some fall behind the window), a third spoiled.
	for round := 0; round < 6; round++ {
		b := make([]core.Report, depth)
		for i := range b {
			ctr := g.next + uint64(g.rng.Intn(3*depth+8))
			if back := uint64(g.rng.Intn(2*depth + 8)); g.rng.Intn(3) == 0 && back < ctr {
				ctr -= back
			}
			b[i] = g.report(ctr)
			if g.rng.Intn(3) == 0 {
				spoil(&b[i], g.rng.Intn(nFaults))
			}
		}
		g.ingest("random", "", b)
		g.next += uint64(depth)
	}
}

// TestCollectionBundleMatchesPerReport drives handleCollection and the
// report-by-report loop it replaced with the same seeded histories and
// requires the same verdict for every report, the same counters, the
// same replay window, the same verdict text and the same nonce memo
// after every bundle. Depth 300 is past the dedup window, so counters
// fall off its back inside one bundle; a memo of 4 evicts inside every
// bundle, one of 4096 holds every counter a warmed run uses.
func TestCollectionBundleMatchesPerReport(t *testing.T) {
	for _, tc := range []struct {
		name string
		keep int
		warm uint64 // counters a third prover commits first
	}{
		{"memo cold", 64, 0},
		{"memo cold and tiny", 4, 0},
		{"memo warm", 4096, 4000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 2; seed++ {
				g := newBundleRig(t, seed, tc.keep)
				if tc.warm > 0 {
					g.enter("prv-warm", 1)
					for g.next < tc.warm {
						g.ingest("warm-up", "", g.fresh(200))
					}
				}
				for i, depth := range []int{0, 1, 4, 17, 300} {
					g.enter(fmt.Sprintf("prv-%d-%d", seed, depth), 1+uint64(i)*37)
					g.script(depth)
				}
				if c := g.srv.Counts(); c.Accepted == 0 || c.Replays == 0 || c.Rejected == c.Replays {
					t.Fatalf("the script drew no mix of verdicts: %+v", c)
				}
			}
		})
	}
}

// TestRacingBundlesCommitOnce has eight goroutines ingest the same
// prover's same 4-deep bundle, the counters moving on every 50 bundles.
// Each judges a copy of the prover's window and all of them commit to
// the one real window, so (ROADMAP I1, I2) every counter is accepted
// exactly once, accepted + rejected == reports, and every loser is a
// replay — whichever step, judge or commit, found it out. Half the
// workers end their bundle on a forged report nobody can commit: its
// tag mismatch is found in the judge step, and a counter lost in the
// commit step, earlier in the bundle, must still be the verdict.
func TestRacingBundlesCommitOnce(t *testing.T) {
	const (
		workers = 8
		bundles = 2000 // per worker
		every   = 50
		depth   = 4
	)
	s := localServer(t, Config{Stripes: 8})
	tmpl, err := NewProver("prv-raced", DefaultKey, GoldenImage(7, testMem, testBlock), testBlock)
	if err != nil {
		t.Fatal(err)
	}
	epochs := make([][]core.Report, bundles/every)
	for e := range epochs {
		for i := 0; i < depth; i++ {
			epochs[e] = append(epochs[e], selfMeasure(t, tmpl, uint64(e*depth+i+1)))
		}
	}
	forged := selfMeasure(t, tmpl, 1<<40)
	forged.Tag[0] ^= 1
	accepted := make([][]int, workers) // per worker, per counter
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		accepted[w] = make([]int, len(epochs)*depth+1)
		wg.Add(1)
		go func(mine []int, forges bool) {
			defer wg.Done()
			var sc ingestScratch
			for k := 0; k < bundles; k++ {
				b := epochs[k/every]
				if forges {
					b = append(slices.Clone(b), forged)
				}
				verdict := s.collect(&sc, tmpl.Name, verifier.ImageID{}, b)
				first := verifier.ReasonOK
				for i, why := range sc.why {
					if first == verifier.ReasonOK {
						first = why
					}
					switch {
					case why == verifier.ReasonOK:
						mine[b[i].Counter]++
					case i == depth && why == verifier.ReasonTagMismatch:
					case i < depth && why == verifier.ReasonReplay:
					default:
						t.Errorf("report %d (counter %d) drew %q", i, b[i].Counter, why)
					}
				}
				if verdict != first {
					t.Errorf("verdict %q, the bundle's first failure is %q (%v)", verdict, first, sc.why)
				}
			}
		}(accepted[w], w%2 == 1)
	}
	wg.Wait()
	for ctr := 1; ctr <= len(epochs)*depth; ctr++ {
		n := 0
		for w := range accepted {
			n += accepted[w][ctr]
		}
		if n != 1 {
			t.Errorf("counter %d accepted %d times", ctr, n)
		}
	}
	c := s.Counts()
	if want := uint64(len(epochs) * depth); c.Accepted != want {
		t.Errorf("accepted %d, want %d", c.Accepted, want)
	}
	forgeries := uint64(workers / 2 * bundles)
	if sent := uint64(workers*bundles*depth) + forgeries; c.Accepted+c.Rejected != sent || c.Replays+forgeries != c.Rejected {
		t.Errorf("counts %+v over %d reports (%d forged): not conserved, or a loser was not a replay", c, sent, forgeries)
	}
}

// TestSeedBundleJudgedInOrder pins the SeED sibling of the bundle
// path: a multi-report bundle is judged against the watermark the
// reports before it left, and the first report to commit enrolls.
func TestSeedBundleJudgedInOrder(t *testing.T) {
	var logged []string
	s := localServer(t, Config{Logf: func(format string, args ...any) {
		logged = append(logged, args[len(args)-1].(string))
	}})
	p, err := NewProver("prv-seed", DefaultKey, GoldenImage(7, testMem, testBlock), testBlock)
	if err != nil {
		t.Fatal(err)
	}
	var bundle []core.Report
	for _, ctr := range []uint64{2, 2, 5, 3, 6} {
		r, err := p.SeedReport(ctr)
		if err != nil {
			t.Fatal(err)
		}
		bundle = append(bundle, *r)
	}
	bundle[4].Tag[0] ^= 1
	s.Ingest(p.Name, transport.KindSeedReport, bundle[4:]) // forged: nothing enrolls
	if s.Enrolled() != 0 {
		t.Fatalf("a forged SeED report enrolled its sender")
	}
	logged = nil
	s.Ingest(p.Name, transport.KindSeedReport, bundle)
	want := []string{"", verifier.ReasonSeedReplay.String(), "", verifier.ReasonSeedReplay.String(), verifier.ReasonTagMismatch.String()}
	if !slices.Equal(logged, want) {
		t.Fatalf("verdicts %q, want %q", logged, want)
	}
	if c := s.Counts(); c.Accepted != 2 || c.Rejected != 4 || c.Replays != 2 || s.Enrolled() != 1 {
		t.Fatalf("counts %+v, enrolled %d", c, s.Enrolled())
	}
}
