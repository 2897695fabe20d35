package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"
	"time"

	"saferatt/internal/core"
	"saferatt/internal/rattd"
	"saferatt/internal/transport"
)

// smartTraceSampling: the open loop issues thousands of ops, not
// hundreds of thousands, so it can afford denser span sampling.
const smartTraceSampling = 8

type smartState uint8

const (
	smartIdle smartState = iota
	smartAwaitChallenge
	smartAwaitVerdict
)

type smartSlot struct {
	state  smartState
	traced bool
	op     uint64
	due    time.Time // the instant the hello was due: latency counts from here

	helloStart, helloEnd    time.Time
	challengeAt, respondEnd time.Time
	reportSent              time.Time
}

// smartClient drives SMART exchanges open-loop: independent devices
// attesting on demand, arrivals a seeded Poisson process at a fixed
// rate that does not slow down when the daemon does. hello ->
// challenge -> report -> verdict; the report's MAC over the image is
// the one hash the generator must compute inside the window (the nonce
// comes from the daemon), and it is timed so it can be subtracted.
type smartClient struct {
	tr      *transport.Net
	provers []*rattd.Prover
	idx     map[string]int32

	mu       sync.Mutex // guards everything below; handler and sender share it
	or       *oracle
	trc      *tracer
	slots    []smartSlot
	inflight int
	ops      uint64
	win      *sliceWindow
	responds []float64 // Prover.Respond durations, us
}

func newSmartClient(addr string, seed uint64, provers int, image []byte, block int, or *oracle) (*smartClient, error) {
	tr, err := transport.Dial(addr, transport.NetConfig{})
	if err != nil {
		return nil, err
	}
	c := &smartClient{
		tr: tr, or: or, idx: make(map[string]int32, provers),
		provers: make([]*rattd.Prover, provers), slots: make([]smartSlot, provers),
	}
	for i := range c.provers {
		name := fmt.Sprintf("s%03x-%06d", seed&0xfff, i)
		if c.provers[i], err = rattd.NewProver(name, rattd.DefaultKey, image, block); err != nil {
			tr.Close()
			return nil, err
		}
		c.idx[name] = int32(i)
		if err := tr.BindFrames(name, c.onFrame); err != nil {
			tr.Close()
			return nil, err
		}
	}
	return c, nil
}

// onFrame runs on the transport's receive worker. Computing the
// response there is deliberate: with the generator on one P the work
// is serial wherever it runs, and this way no queue hides it.
func (c *smartClient) onFrame(f *transport.Frame) {
	at := time.Now()
	i, ok := c.idx[f.To]
	if !ok {
		return
	}
	switch f.Kind {
	case transport.KindChallenge:
		c.mu.Lock()
		s := &c.slots[i]
		if s.state != smartAwaitChallenge {
			c.mu.Unlock()
			return
		}
		s.challengeAt = at
		c.mu.Unlock()

		p := c.provers[i]
		rep, err := p.Respond(f.Nonce)
		respondEnd := time.Now()
		if err == nil {
			err = c.tr.Send(transport.Msg{From: p.Name, To: "rattd", Kind: transport.KindReport, Reports: []*core.Report{rep}})
		}
		sent := time.Now()

		c.mu.Lock()
		if err != nil {
			c.finish(s)
			c.or.lost("exchange", 1, "prover side failed: "+err.Error())
		} else {
			s.state, s.respondEnd, s.reportSent = smartAwaitVerdict, respondEnd, sent
			c.responds = append(c.responds, float64(respondEnd.Sub(at).Nanoseconds())/1e3)
		}
		c.mu.Unlock()
	case transport.KindVerdict:
		c.mu.Lock()
		s := &c.slots[i]
		if s.state == smartAwaitVerdict {
			if c.or.verdict("exchange", true, f.OK) && c.win != nil {
				c.win.observe(at, at.Sub(s.due), s.helloStart.Sub(s.due), 1)
			}
			if s.traced {
				if s.helloEnd.IsZero() { // the challenge beat Send's return
					s.helloEnd = s.challengeAt
				}
				root := c.trc.add("exchange", s.due, at, -1, s.op)
				c.trc.add("hello.send", s.helloStart, s.helloEnd, root, s.op)
				c.trc.add("challenge.wait", s.helloEnd, s.challengeAt, root, s.op)
				c.trc.add("prover.respond", s.challengeAt, s.respondEnd, root, s.op)
				c.trc.add("report.send", s.respondEnd, s.reportSent, root, s.op)
				c.trc.add("verdict.wait", s.reportSent, at, root, s.op)
			}
			c.finish(s)
		}
		c.mu.Unlock()
	}
}

// finish frees a slot. Caller holds mu.
func (c *smartClient) finish(s *smartSlot) {
	s.state = smartIdle
	c.inflight--
}

// phase offers exchanges at rate per second for the given time and then
// waits for the stragglers. It returns what it observed slice by slice.
func (c *smartClient) phase(rng *rand.Rand, rate float64, d time.Duration, sz sizes, trc *tracer) (*sliceWindow, error) {
	start := time.Now()
	width := sz.second / slicesPerSecond
	w := newSliceWindow(start, width, int(d/width))
	c.mu.Lock()
	c.win, c.trc = w, trc
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.win, c.trc = nil, nil
		c.mu.Unlock()
	}()

	end := w.end()
	next := 0
	for due := start; ; {
		due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if !due.Before(end) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		// The next idle prover in turn; a whole fleet busy means the
		// daemon has stopped answering, which expire() will report.
		c.mu.Lock()
		tries := 0
		for c.slots[next].state != smartIdle && tries < len(c.slots) {
			next = (next + 1) % len(c.slots)
			tries++
		}
		if tries == len(c.slots) {
			c.mu.Unlock()
			return nil, fmt.Errorf("every prover has an exchange outstanding")
		}
		i := next
		next = (next + 1) % len(c.slots)
		c.ops++
		op := c.ops
		if trc != nil {
			trc.paused.Store(!tracedSlice(w.index(due)))
		}
		s := &c.slots[i]
		*s = smartSlot{state: smartAwaitChallenge, op: op, due: due, traced: trc.sampled(op)}
		c.inflight++
		c.or.sent("exchange", 1)
		s.helloStart = time.Now()
		c.mu.Unlock()

		err := c.tr.Send(transport.Msg{From: c.provers[i].Name, To: "rattd", Kind: transport.KindHello})
		helloEnd := time.Now()
		c.mu.Lock()
		if s.op == op {
			s.helloEnd = helloEnd
		}
		c.mu.Unlock()
		if err != nil {
			return nil, err
		}
		if op%1024 == 0 {
			c.expire()
		}
	}
	// Stragglers.
	deadline := time.Now().Add(opTimeout + time.Second)
	for {
		c.mu.Lock()
		left := c.inflight
		c.mu.Unlock()
		if left == 0 {
			break
		}
		if time.Now().After(deadline) {
			c.expire()
			break
		}
		time.Sleep(2 * time.Millisecond)
		c.expire()
	}
	return w, nil
}

// expire writes off exchanges that have waited past opTimeout.
func (c *smartClient) expire() {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inflight == 0 {
		return
	}
	for i := range c.slots {
		s := &c.slots[i]
		if s.state != smartIdle && now.Sub(s.due) > opTimeout {
			c.finish(s)
			c.or.lost("exchange", 1, "no verdict within "+opTimeout.String())
		}
	}
}

// smartRig is one set-up of the wire_smart workload.
type smartRig struct {
	d   *daemon
	cl  *smartClient
	rng *rand.Rand
	// baseAccepted is the oracle's tally before this rig existed
	// (earlier set-up repetitions talked to daemons of their own).
	baseAccepted int64
}

func (r *smartRig) teardown() {
	if r.cl != nil {
		r.cl.tr.Close()
	}
	if r.d != nil {
		r.d.kill()
	}
}

func setupSmart(cfg runConfig, bin string, or *oracle, lap func()) (*smartRig, error) {
	const memSize, block = 64 << 10, 1 << 10 // the daemon's defaults
	image := rattd.GoldenImage(cfg.Seed, memSize, block)
	r := &smartRig{rng: rand.New(rand.NewPCG(cfg.Seed, 0x5a17)), baseAccepted: or.class("exchange").accepted}
	var err error
	if r.d, err = startDaemon(bin, cfg.host.ChildGOMAXPROCS, "-seed", strconv.FormatUint(cfg.Seed, 10)); err != nil {
		return nil, err
	}
	lap()
	if r.cl, err = newSmartClient(r.d.addr, cfg.Seed, cfg.sz.smartProvers, image, block, or); err != nil {
		r.teardown()
		return nil, err
	}
	lap()
	// Untimed warm-up at the working rate: route and wire version
	// learned, MAC pools and receive buffers populated.
	if _, err := r.cl.phase(r.rng, cfg.sz.smartRate, cfg.sz.warm, cfg.sz, nil); err != nil {
		r.teardown()
		return nil, err
	}
	return r, nil
}

func runWireSmart(cfg runConfig, res *runResult) error {
	or := res.oracle
	bin, err := startWire(res)
	if err != nil {
		return err
	}

	rig, err := setUp(res, cfg.sz.setupReps, func(lap func()) (*smartRig, error) { return setupSmart(cfg, bin, or, lap) })
	if err != nil {
		return err
	}
	defer rig.teardown()

	rate := cfg.sz.smartRate
	window, side := cfg.Seconds, 0
	if cfg.Trace {
		// Traced run: spans in every other slice of a shorter main
		// window, then the two side steps below and above the fixed rate.
		side = cfg.sz.smartSide
		window = max(2, cfg.Seconds-2*side)
		res.tracer = newTracer(smartTraceSampling)
	}
	cpu0, err := rig.d.cpu()
	if err != nil {
		return err
	}
	net0 := rig.cl.tr.Stats()
	rss := sampleRSS(rig.d.cmd.Process.Pid)
	w, err := rig.cl.phase(rig.rng, rate, time.Duration(window)*cfg.sz.second, cfg.sz, res.tracer)
	if err != nil {
		return err
	}
	done := w.total()
	var traced *sliceWindow
	if cfg.Trace {
		w, traced = w.split()
	}
	cpu1, err := rig.d.cpu()
	if err != nil {
		return err
	}
	net1 := rig.cl.tr.Stats()
	if err := rss.finish(res); err != nil {
		return err
	}

	res.put("ops_per_s", w.rate(), len(w.count))
	p50, samples := res.latency(w.latency())
	res.logf("open loop: %.0f exchanges/s offered, seeded exponential arrivals, latency from the due instant", rate)

	if cfg.Trace {
		for _, st := range []struct {
			rate     float64
			p50, p99 string
		}{
			{500, "smart.rtt_p50_ms_at_500", "smart.rtt_p99_ms_at_500"},
			{4000, "smart.rtt_p50_ms_at_4000", "smart.rtt_p99_ms_at_4000"},
		} {
			sw, err := rig.cl.phase(rig.rng, st.rate*rate/2000, time.Duration(side)*cfg.sz.second, cfg.sz, nil)
			if err != nil {
				return err
			}
			lat := sw.latency()
			sp50, sn := lat.p50()
			stail, _, _, _ := lat.whole()
			res.put(st.p50, sp50, sn)
			res.put(st.p99, stail, sn)
		}
	}

	st, err := rig.d.stop()
	if err != nil {
		return err
	}
	seen := or.class("exchange").accepted - rig.baseAccepted
	or.check(st.Accepted == uint64(seen), "daemon accepted=%d, client saw %d exchanges accepted", st.Accepted, seen)
	or.check(st.Rejected == 0, "daemon rejected=%d on an all-clean fleet", st.Rejected)
	or.check(st.Enrolled == 0, "daemon enrolled=%d: the SMART path must enrol no one", st.Enrolled)
	or.check(st.Challenges >= st.Accepted, "daemon challenges=%d below accepted=%d", st.Challenges, st.Accepted)

	if cfg.Trace {
		res.lateness(w.late)
		res.put("op.cpu_us", float64((cpu1-cpu0).Microseconds())/float64(max(done, 1)), int(done))
		res.put("rattd.prover_respond_us", median(rig.cl.responds), len(rig.cl.responds))
		// Each exchange is two client messages (hello, report).
		res.clientCounters(net0, net1, 2*done, done)
		res.daemonCounters(st)
		res.put("rattd.enrolled_per_legit_prover", float64(st.Enrolled)/float64(len(rig.cl.provers)), 0)
		tp50, _ := traced.latency().p50()
		res.put("trace.overhead_share", tp50/p50-1, samples)
		res.tracer.putSpanMetrics(res.Metrics, "hello.send", "challenge.wait", "prover.respond", "report.send", "verdict.wait")
		if err := runDaemonLayers(cfg, res, wWireSmart); err != nil {
			return err
		}
		runTransportLayers(cfg, res)
		runCoreLayers(cfg, res)
	}
	return nil
}
