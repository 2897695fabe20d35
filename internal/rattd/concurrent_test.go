package rattd

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"saferatt/internal/core"
	"saferatt/internal/transport"
	"saferatt/internal/verifier"
)

// localServer builds a Server over the in-process transport — the
// direct-Ingest embedding the concurrency tests and benchmarks drive.
func localServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	cfg.Ref = GoldenImage(7, testMem, testBlock)
	cfg.BlockSize = testBlock
	s, err := Serve(transport.NewLocal(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// selfMeasure builds one valid ERASMUS report (value form).
func selfMeasure(t testing.TB, prv *Prover, ctr uint64) core.Report {
	t.Helper()
	r, err := prv.SelfMeasure(ctr)
	if err != nil {
		t.Fatal(err)
	}
	return *r
}

// TestConcurrentIngestCounts hammers one server from many goroutines
// with overlapping provers — mixed hello, SMART report, ERASMUS
// collection, and SeED traffic, including the same (prover, counter)
// raced from multiple goroutines — and pins the two invariants the
// striped redesign must keep: counts are conserved (every report is
// counted exactly once, accepted+rejected == sent) and a counter is
// accepted exactly once per prover no matter how many goroutines
// submit it. Run under -race this is also the memory-safety gate for
// the stripe/cache/window machinery.
func TestConcurrentIngestCounts(t *testing.T) {
	const (
		workers  = 8
		provers  = 24 // overlapping: several workers share each prover
		counters = 20
	)
	s := localServer(t, Config{Stripes: 8})
	image := GoldenImage(7, testMem, testBlock)

	prvs := make([]*Prover, provers)
	bundles := make([][]core.Report, provers) // one report per counter
	seeds := make([][]core.Report, provers)
	for i := range prvs {
		p, err := NewProver(fmt.Sprintf("prv%05d", i), DefaultKey, image, testBlock)
		if err != nil {
			t.Fatal(err)
		}
		prvs[i] = p
		for c := uint64(1); c <= counters; c++ {
			bundles[i] = append(bundles[i], selfMeasure(t, p, c))
		}
		sr, err := p.SeedReport(1)
		if err != nil {
			t.Fatal(err)
		}
		seeds[i] = []core.Report{*sr}
	}

	var sent atomic.Uint64 // reports submitted (collection + seed)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < provers; i++ {
				p := prvs[(i+w)%provers]
				idx := (i + w) % provers
				// Every worker replays every prover's full history one
				// report at a time: for each (prover, counter) exactly one
				// submission fleet-wide may be accepted.
				for c := 0; c < counters; c++ {
					s.Ingest(p.Name, transport.KindCollection, bundles[idx][c:c+1])
					sent.Add(1)
				}
				s.Ingest(p.Name, transport.KindSeedReport, seeds[idx])
				sent.Add(1)
				s.Ingest(p.Name, transport.KindHello, nil)
			}
		}(w)
	}
	wg.Wait()

	c := s.Counts()
	if got, want := c.Accepted+c.Rejected, sent.Load(); got != want {
		t.Fatalf("counts not conserved: accepted %d + rejected %d = %d, want %d",
			c.Accepted, c.Rejected, got, want)
	}
	// Exactly-once: each prover has `counters` ERASMUS counters and one
	// SeED counter, each acceptable exactly once across all workers.
	if got, want := c.Accepted, uint64(provers*(counters+1)); got != want {
		t.Fatalf("accepted %d, want exactly-once %d", got, want)
	}
	if got, want := c.Challenges, uint64(workers*provers); got != want {
		t.Fatalf("challenges %d, want %d", got, want)
	}
	// Every duplicate submission was a replay rejection.
	if got, want := c.Replays, uint64((workers-1)*provers*(counters+1)); got != want {
		t.Fatalf("replays %d, want %d", got, want)
	}
	if got := s.Enrolled(); got != provers {
		t.Fatalf("enrolled %d, want %d", got, provers)
	}
}

// TestStripesDoNotShareLocks is the structural no-shared-lock gate:
// with one prover's stripe mutex held, ingest for a prover on a
// different stripe must complete (nothing daemon-wide is locked, and
// crypto runs off-lock), while ingest for a same-stripe prover must
// block. On a single-core host this is the enforceable form of the
// scaling claim; multi-core speedups are measured by
// BenchmarkServer_ConcurrentIngest.
func TestStripesDoNotShareLocks(t *testing.T) {
	s := localServer(t, Config{Stripes: 8})
	image := GoldenImage(7, testMem, testBlock)

	// Find three provers: a (whose stripe we freeze), b on a different
	// stripe, c on a's stripe.
	var a, b, c string
	for i := 0; b == "" || c == ""; i++ {
		n := fmt.Sprintf("prv%05d", i)
		switch {
		case a == "":
			a = n
		case s.stripeFor(n) != s.stripeFor(a) && b == "":
			b = n
		case s.stripeFor(n) == s.stripeFor(a) && c == "":
			c = n
		}
	}

	ingest := func(name string) chan struct{} {
		p, err := NewProver(name, DefaultKey, image, testBlock)
		if err != nil {
			t.Fatal(err)
		}
		bundle := []core.Report{selfMeasure(t, p, 1)}
		done := make(chan struct{})
		go func() {
			s.Ingest(name, transport.KindCollection, bundle)
			close(done)
		}()
		return done
	}

	s.stripeFor(a).mu.Lock()
	// Different stripe: full ingest (PRF, window, batch verify, verdict
	// send) proceeds under a's held lock.
	select {
	case <-ingest(b):
	case <-time.After(5 * time.Second):
		s.stripeFor(a).mu.Unlock()
		t.Fatal("cross-stripe ingest blocked on a foreign stripe lock")
	}
	// Same stripe: must block until released.
	cDone := ingest(c)
	select {
	case <-cDone:
		s.stripeFor(a).mu.Unlock()
		t.Fatal("same-stripe ingest did not serialize on the stripe lock")
	case <-time.After(50 * time.Millisecond):
	}
	s.stripeFor(a).mu.Unlock()
	select {
	case <-cDone:
	case <-time.After(5 * time.Second):
		t.Fatal("same-stripe ingest never completed after unlock")
	}
	if got := s.Counts().Accepted; got != 2 {
		t.Fatalf("accepted %d, want 2", got)
	}
}

// TestEnrolledCounter pins the O(1) enrollment counter against the
// semantics the old double-scan had: a prover counts once, whether it
// arrived via ERASMUS (counted on first contact, even all-rejected)
// or SeED (counted on first accepted report), and never twice.
func TestEnrolledCounter(t *testing.T) {
	s := localServer(t, Config{Stripes: 4})
	image := GoldenImage(7, testMem, testBlock)
	p1, _ := NewProver("era-only", DefaultKey, image, testBlock)
	p2, _ := NewProver("seed-only", DefaultKey, image, testBlock)
	p3, _ := NewProver("both-ways", DefaultKey, image, testBlock)

	if s.Enrolled() != 0 {
		t.Fatal("fresh server claims enrollment")
	}
	s.Ingest(p1.Name, transport.KindCollection, []core.Report{selfMeasure(t, p1, 1)})
	s.Ingest(p1.Name, transport.KindCollection, []core.Report{selfMeasure(t, p1, 2)})
	if got := s.Enrolled(); got != 1 {
		t.Fatalf("after ERASMUS enrollment: %d, want 1", got)
	}
	// A rejected-only collection still enrolls (window exists).
	s.Ingest("rejected-only", transport.KindCollection, nil)
	if got := s.Enrolled(); got != 2 {
		t.Fatalf("after empty collection: %d, want 2", got)
	}
	sr2, err := p2.SeedReport(1)
	if err != nil {
		t.Fatal(err)
	}
	s.Ingest(p2.Name, transport.KindSeedReport, []core.Report{*sr2})
	if got := s.Enrolled(); got != 3 {
		t.Fatalf("after SeED enrollment: %d, want 3", got)
	}
	// Both paths for one prover count once.
	s.Ingest(p3.Name, transport.KindCollection, []core.Report{selfMeasure(t, p3, 1)})
	sr3, err := p3.SeedReport(1)
	if err != nil {
		t.Fatal(err)
	}
	s.Ingest(p3.Name, transport.KindSeedReport, []core.Report{*sr3})
	if got := s.Enrolled(); got != 4 {
		t.Fatalf("after dual-path prover: %d, want 4", got)
	}
	// Checkpoint/restore preserves the count.
	s2 := localServer(t, Config{Stripes: 2})
	s2.Restore(s.Checkpoint())
	if got := s2.Enrolled(); got != 4 {
		t.Fatalf("restored enrollment: %d, want 4", got)
	}
}

// TestNetConcurrentIngest drives mixed traffic for overlapping
// provers at the server over real loopback sockets — the transport's
// dispatch workers (at least four) hit the striped handlers
// genuinely concurrently, which under -race is the end-to-end memory
// check the direct-Ingest test cannot give. Counts conservation and
// exactly-once acceptance are asserted after the network settles.
func TestNetConcurrentIngest(t *testing.T) {
	const (
		clients  = 4
		provers  = 8 // per client; names overlap across clients
		counters = 6
	)
	lis, err := transport.Listen(transport.NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	image := GoldenImage(7, testMem, testBlock)
	s, err := Serve(lis, Config{Ref: image, BlockSize: testBlock, Stripes: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var sent atomic.Uint64
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		cli, err := transport.Dial(lis.Addr().String(), transport.NetConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		wg.Add(1)
		go func(cli transport.Transport) {
			defer wg.Done()
			for i := 0; i < provers; i++ {
				name := fmt.Sprintf("prv%05d", i) // shared across clients
				p, err := NewProver(name, DefaultKey, image, testBlock)
				if err != nil {
					t.Error(err)
					return
				}
				for c := uint64(1); c <= counters; c++ {
					r, err := p.SelfMeasure(c)
					if err != nil {
						t.Error(err)
						return
					}
					if err := cli.Send(transport.Msg{
						From: name, To: s.Name(), Kind: transport.KindCollection,
						ReqID: uint64(cl*1_000_000+i*1_000) + c, Reports: []*core.Report{r},
					}); err != nil {
						t.Error(err)
						return
					}
					sent.Add(1)
				}
			}
		}(cli)
	}
	wg.Wait()
	waitFor(t, func() bool {
		c := s.Counts()
		return c.Accepted+c.Rejected == sent.Load()
	})
	c := s.Counts()
	// Each (prover, counter) pair is accepted exactly once fleet-wide;
	// the other clients' copies are replays.
	if got, want := c.Accepted, uint64(provers*counters); got != want {
		t.Fatalf("accepted %d, want exactly-once %d (counts %+v)", got, want, c)
	}
	if got, want := c.Replays, uint64((clients-1)*provers*counters); got != want {
		t.Fatalf("replays %d, want %d", got, want)
	}
	if got := s.Enrolled(); got != provers {
		t.Fatalf("enrolled %d, want %d", got, provers)
	}
}

// TestServerVerifySteadyZeroAllocs gates the steady-state ERASMUS
// verify path at zero heap allocations per report: pooled PRF
// scratch, pooled MAC state, lock-free batch-cache hit, bitmap window
// commit. A regression here is a per-report allocation at
// million-prover scale.
func TestServerVerifySteadyZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race suite")
	}
	const n = 512
	s := localServer(t, Config{Stripes: 4})
	image := GoldenImage(7, testMem, testBlock)

	// Pre-enroll n provers at counter 1; the measured pass ingests
	// counter 2 (same nonce for every prover — the batch-amortized
	// fleet shape), so no map growth or window creation remains.
	bundles := make([][]core.Report, n)
	names := make([]string, n)
	for i := 0; i < n; i++ {
		p, err := NewProver(fmt.Sprintf("prv%05d", i), DefaultKey, image, testBlock)
		if err != nil {
			t.Fatal(err)
		}
		names[i] = p.Name
		s.Ingest(p.Name, transport.KindCollection, []core.Report{selfMeasure(t, p, 1)})
		bundles[i] = []core.Report{selfMeasure(t, p, 2)}
	}
	// Warm the counter-2 expected tag and the ingest scratch pool.
	s.Ingest(names[0], transport.KindCollection, bundles[0])

	i := 1
	avg := testing.AllocsPerRun(n-2, func() {
		s.Ingest(names[i], transport.KindCollection, bundles[i])
		i++
	})
	if avg != 0 {
		t.Fatalf("steady-state verify path allocates %.2f allocs/op, want 0", avg)
	}
	if c := s.Counts(); c.Accepted != uint64(2*n) {
		t.Fatalf("accepted %d, want %d (a measured report was rejected)", c.Accepted, 2*n)
	}
}

// TestServerVerifySteadyDepth4ZeroAllocs is the same gate on the
// history depth the benchmark's fleets send: four reports a bundle, so
// the per-report verdicts, the memo probes and the tag-cache links of a
// bundle judged as one unit allocate nothing either
// (BenchmarkServer_VerifySteadyDepth4's path).
func TestServerVerifySteadyDepth4ZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race suite")
	}
	const n, depth = 512, 4
	bundleAt := func(p *Prover, first uint64) []core.Report {
		b := make([]core.Report, depth)
		for i := range b {
			b[i] = selfMeasure(t, p, first+uint64(i))
		}
		return b
	}
	s, provers := steadyFleet(t, n, func(p *Prover) (transport.Kind, []core.Report) {
		return transport.KindCollection, bundleAt(p, 1)
	})
	bundles := make([][]core.Report, n)
	for i, p := range provers {
		bundles[i] = bundleAt(p, 1+depth)
	}
	// Warm the next counters' expected tags, memo entries and links, and
	// the ingest scratch pool.
	s.Ingest(provers[0].Name, transport.KindCollection, bundles[0])
	s.Ingest(provers[1].Name, transport.KindCollection, bundles[1])

	i := 2
	avg := testing.AllocsPerRun(n-3, func() {
		s.Ingest(provers[i].Name, transport.KindCollection, bundles[i])
		i++
	})
	if avg != 0 {
		t.Fatalf("4-deep steady-state verify path allocates %.2f allocs/op, want 0", avg)
	}
	if c := s.Counts(); c.Accepted != uint64(2*n*depth) || c.Rejected != 0 {
		t.Fatalf("counts %+v, want %d accepted and none rejected", c, 2*n*depth)
	}
}

// TestServerRejectUnboundCounterZeroAllocs gates the path a sender who
// picks its own counters takes (BenchmarkServer_RejectUnboundCounter's):
// an enrolled name, a counter nobody committed, a nonce that is not its
// PRF — a memo miss, a derived nonce, a refusal and a verdict, and no
// allocation.
func TestServerRejectUnboundCounterZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race suite")
	}
	const n = 512
	s, provers := steadyFleet(t, n, func(p *Prover) (transport.Kind, []core.Report) {
		return transport.KindCollection, []core.Report{selfMeasure(t, p, 1)}
	})
	bundle := []core.Report{selfMeasure(t, provers[0], 1)}
	s.Ingest(provers[0].Name, transport.KindCollection, bundle) // warm the scratch pool
	before := s.Counts()

	i := 1
	avg := testing.AllocsPerRun(n-2, func() {
		bundle[0].Counter = mix64(uint64(i)) | 1<<32 // chosen by the sender, never committed
		s.Ingest(provers[i].Name, transport.KindCollection, bundle)
		i++
	})
	if avg != 0 {
		t.Fatalf("unbound-counter reject allocates %.2f allocs/op, want 0", avg)
	}
	after := s.Counts()
	if after.Accepted != before.Accepted || after.Verdicts[verifier.ReasonNonceUnbound]-before.Verdicts[verifier.ReasonNonceUnbound] != uint64(n-1) {
		t.Fatalf("counts %+v -> %+v, want %d more nonce-unbound refusals and no accept", before, after, n-1)
	}
}

// steadyFleet builds a server and n provers, each enrolled by one
// first-contact bundle from first, so the measured ingest finds its
// record, image binding and pools in place.
func steadyFleet(t *testing.T, n int, first func(p *Prover) (transport.Kind, []core.Report)) (*Server, []*Prover) {
	t.Helper()
	s := localServer(t, Config{Stripes: 4})
	image := GoldenImage(7, testMem, testBlock)
	provers := make([]*Prover, n)
	for i := range provers {
		p, err := NewProver(fmt.Sprintf("prv%05d", i), DefaultKey, image, testBlock)
		if err != nil {
			t.Fatal(err)
		}
		provers[i] = p
		kind, bundle := first(p)
		s.Ingest(p.Name, kind, bundle)
	}
	return s, provers
}

// TestServerSeedSteadyAllocs pins the steady SeED ingest path of an
// enrolled prover at the two allocations of its uncached one-shot tag
// (Image.ExpectedTag under Batch.VerifyOnce): seed derivation, nonce,
// judging and commit add none.
func TestServerSeedSteadyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race suite")
	}
	const n = 400
	seed := func(p *Prover, ctr uint64) []core.Report {
		r, err := p.SeedReport(ctr)
		if err != nil {
			t.Fatal(err)
		}
		return []core.Report{*r}
	}
	s, provers := steadyFleet(t, n, func(p *Prover) (transport.Kind, []core.Report) {
		return transport.KindSeedReport, seed(p, 1)
	})
	bundles := make([][]core.Report, n)
	for i, p := range provers {
		bundles[i] = seed(p, 2)
	}
	s.Ingest(provers[0].Name, transport.KindSeedReport, bundles[0]) // warm the scratch pool

	i := 1
	avg := testing.AllocsPerRun(n-2, func() {
		s.Ingest(provers[i].Name, transport.KindSeedReport, bundles[i])
		i++
	})
	t.Logf("%.2f allocs/op", avg)
	if avg > 2 {
		t.Fatalf("steady SeED ingest allocates %.2f allocs/op, want <= 2", avg)
	}
	if c := s.Counts(); c.Accepted != 2*n {
		t.Fatalf("accepted %d, want %d (a measured report was rejected)", c.Accepted, 2*n)
	}
}

// TestServerSmartResponseAllocs pins a SMART response from an enrolled
// prover at the two allocations of its one-shot tag, as on the SeED
// path: redeeming the challenge, judging and the verdict add none.
// Every challenge is issued before the measured loop.
func TestServerSmartResponseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race suite")
	}
	const n = 400
	s, provers := steadyFleet(t, n, func(p *Prover) (transport.Kind, []core.Report) {
		return transport.KindCollection, []core.Report{selfMeasure(t, p, 1)}
	})
	tr := s.tr.(*transport.Local)
	nonces := make([][]byte, n)
	accepted := 0
	for i, p := range provers {
		if err := tr.Bind(p.Name, func(m transport.Msg) {
			switch {
			case m.Kind == transport.KindChallenge:
				nonces[i] = append([]byte(nil), m.Nonce...)
			case m.Kind == transport.KindVerdict && m.OK:
				accepted++
			}
		}); err != nil {
			t.Fatal(err)
		}
		s.Ingest(p.Name, transport.KindHello, nil)
	}
	bundles := make([][]core.Report, n)
	for i, p := range provers {
		r, err := p.Respond(nonces[i])
		if err != nil {
			t.Fatal(err)
		}
		bundles[i] = []core.Report{*r}
	}
	s.Ingest(provers[0].Name, transport.KindReport, bundles[0]) // warm the scratch pool

	i := 1
	avg := testing.AllocsPerRun(n-2, func() {
		s.Ingest(provers[i].Name, transport.KindReport, bundles[i])
		i++
	})
	t.Logf("%.2f allocs/op", avg)
	if avg > 2 {
		t.Fatalf("SMART response allocates %.2f allocs/op, want <= 2", avg)
	}
	if accepted != n {
		t.Fatalf("%d responses accepted, want %d", accepted, n)
	}
}

// TestSeedNamesLeaveNoPoolState pins "state bounded by the legitimate
// fleet" for the SeED path: a well-formed bundle under a never-seen
// name makes the daemon derive that name's seed and nonce before it can
// refuse the forged tag, and neither derivation may leave anything
// behind — no record, and no MAC pool keyed by the seed (115 B a name,
// for ever, when the nonce went through the keyed pool).
func TestSeedNamesLeaveNoPoolState(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is meaningless under the race detector")
	}
	const names = 50_000
	s := localServer(t, Config{Stripes: 4})
	image := GoldenImage(7, testMem, testBlock)
	forged := func(i int) {
		p, err := NewProver(fmt.Sprintf("ghost-%06d", i), DefaultKey, image, testBlock)
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.SeedReport(1)
		if err != nil {
			t.Fatal(err)
		}
		r.Tag[0] ^= 1
		s.Ingest(p.Name, transport.KindSeedReport, []core.Report{*r})
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	forged(-1) // scratch pools and hash states exist before the baseline
	before := heap()
	for i := 0; i < names; i++ {
		forged(i)
	}
	perName := float64(int64(heap()-before)) / names
	t.Logf("%.1f heap bytes per name after %d names", perName, names)
	if perName > 32 {
		t.Fatalf("%.1f heap bytes retained per never-seen SeED name, want <= 32", perName)
	}
	if c := s.Counts(); s.Enrolled() != 0 || c.Accepted != 0 || c.Rejected != names+1 {
		t.Fatalf("enrolled %d, counts %+v: want nothing enrolled, every forged report rejected", s.Enrolled(), c)
	}
}
