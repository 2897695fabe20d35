package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"saferatt/internal/core"
	"saferatt/internal/rattd"
	"saferatt/internal/transport"
)

// inproc_mixed: rounds of Server.Ingest over transport.Local — no
// codec, no socket, so a transport change must not move it. Per round
// every legitimate prover sends one 4-deep collection; one prover in 32
// also sends a SeED report (per-prover nonce, so a tag-cache miss); and
// one bundle in 100 is hostile, split evenly between a replay of the
// prover's previous round, forged tags under a legitimate name, and
// forged tags under a never-seen spoofed name.

const (
	seedEvery    = 32
	hostileEvery = 100 // one hostile bundle after every 99 legitimate ones
	callSampling = 16  // time one Ingest call in this many
)

// Op classes, as array indices: the ingest loop is the measured path,
// so its bookkeeping is two array increments per call, settled with
// the oracle once the round's clock has stopped.
const (
	clsFresh = iota
	clsSeed
	clsReplay
	clsForged
	clsSpoofed
	nClasses
)

var className = [nClasses]string{"fresh", "seed", "replay", "forged", "spoofed"}

type inprocRig struct {
	fl    *fleet
	srv   *rattd.Server
	loc   *transport.Local
	heap  uint64 // settled heap before the server saw traffic
	chunk int    // Ingest calls per slice of a round

	round   int // next round to run
	prev    []core.Report
	workers int
	warmed  int64 // bundles replayed by the set-up's timed warm-up

	// verdict callback state: the op the single ingest goroutine is
	// inside of (workers == 1 only; the -cpu sweep checks counters).
	cur struct {
		class int
		cb    time.Duration
		timed bool
	}
	seen [nClasses][2]int64 // verdicts seen per class: [0] not OK, [1] OK
	or   *oracle
}

func setupInproc(cfg runConfig, or *oracle, lap func()) (*inprocRig, error) {
	fl, err := newFleet(cfg.Seed, cfg.sz.inprocProvers, 4<<10, 256, 4)
	if err != nil {
		return nil, err
	}
	r := &inprocRig{fl: fl, loc: transport.NewLocal(), or: or, workers: cfg.Workers, chunk: cfg.sz.inprocChunk}
	if r.workers < 1 {
		r.workers = 1
	}
	r.heap = settledHeap()
	lap()
	if r.srv, err = rattd.Serve(r.loc, rattd.Config{Ref: fl.image, BlockSize: fl.block}); err != nil {
		return nil, err
	}
	for _, name := range fl.names {
		if err := r.loc.Bind(name, r.onVerdict); err != nil {
			return nil, err
		}
	}
	lap()
	// Untimed warm-up: round 0 enrols every prover and fills the tag
	// cache's first epochs.
	b, err := fl.bundle(0)
	if err != nil {
		return nil, err
	}
	vals := values(b)
	r.cur.class = clsFresh
	for i, name := range fl.names {
		r.srv.Ingest(name, transport.KindCollection, vals)
		if (i+1)%r.chunk == 0 {
			lap()
		}
	}
	// ... then the same bundles again for the warm-up time: replays
	// touch every lookup structure and advance no counter.
	r.cur.class = clsReplay
	batch := fl.names[:min(256, len(fl.names))] // between looks at the clock
	for deadline := time.Now().Add(cfg.sz.warm); time.Now().Before(deadline); {
		for _, name := range batch {
			r.srv.Ingest(name, transport.KindCollection, vals)
		}
		r.warmed += int64(len(batch))
	}
	if r.workers == 1 {
		or.sent("fresh", int64(len(fl.names)))
		or.sent("replay", r.warmed)
		r.settle()
	}
	r.prev, r.round = vals, 1
	return r, nil
}

func (r *inprocRig) teardown() { r.srv.Close() }

// onVerdict is the synchronous verdict callback: transport.Local
// delivers the server's verdict on the ingesting goroutine, inside the
// Ingest call it answers.
func (r *inprocRig) onVerdict(m transport.Msg) {
	if m.Kind != transport.KindVerdict || r.workers > 1 {
		return
	}
	var start time.Time
	if r.cur.timed {
		start = time.Now()
	}
	if m.OK {
		r.seen[r.cur.class][1]++
	} else {
		r.seen[r.cur.class][0]++
	}
	if r.cur.timed {
		r.cur.cb = time.Since(start)
	}
}

// settle hands the verdicts the callback saw to the oracle: only fresh
// bundles may have been accepted.
func (r *inprocRig) settle() {
	for c, seen := range r.seen {
		r.or.verdicts(className[c], c == clsFresh, seen[1], seen[0])
	}
	r.seen = [nClasses][2]int64{}
}

// roundInputs is everything one round sends, built before the round's
// clock starts (the SeED reports are the only hashing, one MAC each).
type roundInputs struct {
	fresh   []core.Report
	forged  []core.Report
	seeds   [][]core.Report // per seeding prover, one report
	spoofed []string
}

func (r *inprocRig) prepare(round int) (*roundInputs, error) {
	b, err := r.fl.bundle(round)
	if err != nil {
		return nil, err
	}
	in := &roundInputs{fresh: values(b)}
	in.forged = forged(in.fresh)
	for i := 0; i < len(r.fl.names); i += seedEvery {
		p, err := rattd.NewProver(r.fl.names[i], rattd.DefaultKey, r.fl.image, r.fl.block)
		if err != nil {
			return nil, err
		}
		rep, err := p.SeedReport(uint64(round))
		if err != nil {
			return nil, err
		}
		in.seeds = append(in.seeds, []core.Report{*rep})
	}
	hostile := len(r.fl.names) / (hostileEvery - 1)
	for k := 0; k < (hostile+2)/3; k++ {
		in.spoofed = append(in.spoofed, fmt.Sprintf("spoof-%03x-%d-%d", r.fl.seed&0xfff, round, k))
	}
	return in, nil
}

// roundTally is what one timed round did. A round is cut into slices
// of chunk Ingest calls each (some ten milliseconds), every slice with
// its own rate and its own sample of call latencies.
type roundTally struct {
	wall     time.Duration
	cpu      time.Duration
	accepted int64
	rates    []float64   // accepted reports per second, per slice
	calls    [][]float64 // sampled Ingest call latencies (ms), per slice
	sent     [nClasses]int64
}

// run executes one round on the calling goroutine and checks the
// server's counters moved by exactly what the oracle expects.
func (r *inprocRig) run(in *roundInputs, trc *tracer) *roundTally {
	t := &roundTally{}
	before := r.srv.Counts()
	h := int64(r.fl.history)
	names := r.fl.names
	var ops uint64

	// The slice in progress: when it began, what it has accepted so far
	// (every fresh and SeED report verifies) and its sampled calls.
	var sliceStart time.Time
	var sliceAccepted int64
	var sliceCalls []float64
	ingest := func(class int, name string, kind transport.Kind, reports []core.Report) {
		if ops%uint64(r.chunk) == 0 {
			now := time.Now()
			if ops > 0 {
				t.rates = append(t.rates, float64(sliceAccepted)/now.Sub(sliceStart).Seconds())
				t.calls = append(t.calls, sliceCalls)
			}
			sliceStart, sliceAccepted, sliceCalls = now, 0, nil
		}
		ops++
		t.sent[class]++
		switch class {
		case clsFresh:
			sliceAccepted += h
		case clsSeed:
			sliceAccepted++
		}
		r.cur.class = class
		traced := trc.sampled(ops)
		r.cur.timed = traced
		if ops%callSampling != 0 && !traced {
			r.srv.Ingest(name, kind, reports)
			return
		}
		start := time.Now()
		r.srv.Ingest(name, kind, reports)
		end := time.Now()
		sliceCalls = append(sliceCalls, float64(end.Sub(start).Nanoseconds())/1e6)
		if traced {
			span := "ingest.hostile"
			switch class {
			case clsFresh:
				span = "ingest.collection"
			case clsSeed:
				span = "ingest.seed"
			}
			id := trc.add(span, start, end, -1, ops)
			if kind == transport.KindCollection && class != clsSpoofed {
				// The callback ran inside the call; its span is placed at
				// the call's end, where the server sends its verdict.
				trc.add("verdict.cb", end.Add(-r.cur.cb), end, id, ops)
			}
		}
	}

	cpu0 := selfCPU()
	start := time.Now()
	seedAt, hostileAt, spoofAt := 0, 0, 0
	for i, name := range names {
		if (i+1)%(hostileEvery-1) == 0 {
			switch hostileAt % 3 {
			case 0: // the previous round's bundle again
				ingest(clsReplay, name, transport.KindCollection, r.prev)
			case 1: // fresh counters, wrong measurement, legitimate name
				ingest(clsForged, name, transport.KindCollection, in.forged)
			case 2: // the same under a name the server has never seen
				ingest(clsSpoofed, in.spoofed[spoofAt], transport.KindCollection, in.forged)
				spoofAt++
			}
			hostileAt++
		}
		ingest(clsFresh, name, transport.KindCollection, in.fresh)
		if i%seedEvery == 0 {
			ingest(clsSeed, name, transport.KindSeedReport, in.seeds[seedAt])
			seedAt++
		}
	}
	t.wall = time.Since(start)
	t.cpu = selfCPU() - cpu0

	// Register with the oracle outside the clock. Collections from bound
	// names resolved through the verdict callback; SeED is
	// non-interactive and spoofed names are unbound, so those two
	// classes resolve through the server's counters below.
	after := r.srv.Counts()
	for c, n := range t.sent {
		r.or.sent(className[c], n)
	}
	r.settle()
	seeds, spoofed := t.sent[clsSeed], t.sent[clsSpoofed]
	t.accepted = t.sent[clsFresh]*h + seeds
	wantRejected := (t.sent[clsReplay] + t.sent[clsForged] + spoofed) * h
	gotAccepted := int64(after.Accepted - before.Accepted)
	gotRejected := int64(after.Rejected - before.Rejected)
	gotReplays := int64(after.Replays - before.Replays)
	r.or.check(gotAccepted == t.accepted, "round %d: server accepted %d reports, expected %d", r.round, gotAccepted, t.accepted)
	r.or.check(gotRejected == wantRejected, "round %d: server rejected %d reports, expected %d", r.round, gotRejected, wantRejected)
	r.or.check(gotReplays == t.sent[clsReplay]*h, "round %d: server counted %d replays, expected %d", r.round, gotReplays, t.sent[clsReplay]*h)
	if gotAccepted == t.accepted && gotRejected == wantRejected {
		r.or.class("seed").accepted += seeds
		r.or.class("spoofed").rejected += spoofed
	}
	r.prev = in.fresh
	r.round++
	return t
}

// runParallel is the -cpu sweep's round: the fleet split across
// workers ingest goroutines, legitimate collections only.
func (r *inprocRig) runParallel(in *roundInputs) *roundTally {
	t := &roundTally{}
	names := r.fl.names
	per := (len(names) + r.workers - 1) / r.workers
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < r.workers; w++ {
		lo, hi := w*per, (w+1)*per
		if hi > len(names) {
			hi = len(names)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(part []string) {
			defer wg.Done()
			for _, name := range part {
				r.srv.Ingest(name, transport.KindCollection, in.fresh)
			}
		}(names[lo:hi])
	}
	wg.Wait()
	t.wall = time.Since(start)
	t.accepted = int64(len(names) * r.fl.history)
	r.prev = in.fresh
	r.round++
	return t
}

// rounds runs whole rounds until d has passed, preparing each round's
// inputs off the clock, and returns the tallies. With a tracer, every
// other round records spans and there are at least two rounds.
func (r *inprocRig) rounds(d time.Duration, trc *tracer) ([]*roundTally, error) {
	var out []*roundTally
	least := 1
	if trc != nil {
		least = 2
	}
	for deadline := time.Now().Add(d); time.Now().Before(deadline) || len(out) < least; {
		in, err := r.prepare(r.round)
		if err != nil {
			return nil, err
		}
		if trc != nil {
			trc.paused.Store(!tracedSlice(len(out)))
		}
		out = append(out, r.run(in, trc))
	}
	return out, nil
}

// sliceRates gathers the per-slice rates of a set of rounds.
func sliceRates(ts []*roundTally) []float64 {
	var rates []float64
	for _, t := range ts {
		rates = append(rates, t.rates...)
	}
	return rates
}

func runInprocMixed(cfg runConfig, res *runResult) error {
	or := res.oracle
	rig, err := setUp(res, cfg.sz.setupReps, func(lap func()) (*inprocRig, error) { return setupInproc(cfg, or, lap) })
	if err != nil {
		return err
	}
	defer rig.teardown()

	if cfg.Trace {
		res.tracer = newTracer(traceSampling)
	}
	rss := sampleRSS(os.Getpid())
	all, err := rig.rounds(time.Duration(cfg.Seconds)*cfg.sz.second, res.tracer)
	if err != nil {
		return err
	}
	if err := rss.finish(res); err != nil {
		return err
	}
	// A traced run's odd rounds carry spans; its even rounds are the
	// untraced reference every figure below is computed from.
	ts, tts := all, []*roundTally(nil)
	if cfg.Trace {
		ts = nil
		for i, t := range all {
			if tracedSlice(i) {
				tts = append(tts, t)
			} else {
				ts = append(ts, t)
			}
		}
	}
	var wall, cpu time.Duration
	var accepted int64
	lat := &sliceStats{}
	for _, t := range ts {
		wall += t.wall
		cpu += t.cpu
		accepted += t.accepted
		for _, calls := range t.calls {
			lat.add(calls)
		}
	}
	rates := sliceRates(ts)
	rate := quietHigh(rates)
	res.put("ops_per_s", rate, len(rates))
	res.latency(lat)
	res.logf("%d rounds of %d provers in slices of %d calls, one ingest goroutine, GOMAXPROCS %d; whole rounds ran at %.0f reports/s",
		len(ts), len(rig.fl.names), rig.chunk, runtime.GOMAXPROCS(0), float64(accepted)/wall.Seconds())

	if cfg.Trace {
		res.put("op.cpu_us", float64(cpu.Microseconds())/float64(max(accepted, 1)), int(accepted))
		res.put("op.mean_per_s", float64(accepted)/wall.Seconds(), len(ts))
		res.put("trace.overhead_share", 1-quietHigh(sliceRates(tts))/rate, len(tts))
		res.tracer.putSpanMetrics(res.Metrics, "ingest.collection", "ingest.seed", "ingest.hostile", "verdict.cb")

		legit := float64(len(rig.fl.names))
		growth := float64(settledHeap()) - float64(rig.heap)
		res.put("rattd.state_bytes_per_prover", growth/legit, len(rig.fl.names))
		res.put("rattd.enrolled_per_legit_prover", float64(rig.srv.Enrolled())/legit, 0)
		c := rig.srv.Counts()
		res.put("rattd.accepted", float64(c.Accepted), 0)
		res.put("rattd.rejected", float64(c.Rejected), 0)
		res.put("rattd.replays", float64(c.Replays), 0)
		res.put("rattd.challenges", float64(c.Challenges), 0)
		res.put("rattd.enrolled", float64(rig.srv.Enrolled()), 0)
		bs := rig.srv.BatchStats()
		res.put("verifier.batch_hit_ratio", 1-float64(bs.Computed)/max(float64(bs.Reports), 1), int(bs.Reports))
		if err := runDaemonLayers(cfg, res, wInprocMixed); err != nil {
			return err
		}
		runLocalLayer(cfg, res)
		runCoreLayers(cfg, res)
	}
	// Every legitimate prover is enrolled exactly once; only spoofed
	// names may add to that.
	spoofed := or.class("spoofed").sent
	or.check(int64(rig.srv.Enrolled()) == int64(len(rig.fl.names))+spoofed,
		"server enrolled %d, expected %d legitimate + %d spoofed", rig.srv.Enrolled(), len(rig.fl.names), spoofed)
	return nil
}

// settledHeap returns live heap bytes after a full GC.
func settledHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
