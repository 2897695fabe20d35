package main

import (
	"fmt"
	"runtime"
	"time"

	"saferatt/internal/transport"
)

// Host rule for the wire workloads: the generator is this one process
// with one UDP socket, and traffic crosses the host's loopback
// interface, never a link.

// startWire applies that rule and builds the daemon the workload will
// drive; the compile is logged, not counted as set-up.
func startWire(res *runResult) (bin string, err error) {
	runtime.GOMAXPROCS(1)
	bin, took, err := buildDaemon()
	if err != nil {
		return "", err
	}
	res.logf("built cmd/rattd in %.2fs (not part of setup_s)", took.Seconds())
	return bin, nil
}

// clientCounters files what the client transport did between two
// readings of its counters, over a window that handed it msgs messages
// carrying ops reports (or exchanges).
func (r *runResult) clientCounters(before, after transport.NetStats, msgs, ops int64) {
	resent := after.Resent - before.Resent
	r.put("transport.client_resent", float64(resent), 0)
	r.put("transport.client_expired", float64(after.Expired-before.Expired), 0)
	r.put("transport.client_coalesced_share", float64(after.Coalesced-before.Coalesced)/float64(max(msgs, 1)), int(msgs))
	r.put("transport.datagrams_per_report", float64(after.Sent-before.Sent+resent)/float64(max(ops, 1)), int(ops))
}

// opTimeout is how long a wire op may stay unanswered before it is a
// failed op. It sits above the client transport's own 5 s request
// deadline, so a datagram the transport gave up on is never waited for.
const opTimeout = 8 * time.Second

// collectOp is one collection bundle to send: which prover, which
// round's template, and the verdict the oracle expects.
type collectOp struct {
	prover int
	round  int
	wantOK bool
	class  string
}

type completion struct {
	prover int32
	ok     bool
	at     time.Time
}

type collectSlot struct {
	inflight bool
	wantOK   bool
	traced   bool
	class    string
	op       uint64
	due      time.Time // the instant the bundle was due: latency counts from here
	sentAt   time.Time
	sendEnd  time.Time
}

// pacing is an offered load: a burst of bundles falls due every
// interval, whatever the verifier is doing. The zero value is the plain
// closed loop, where a bundle is due the moment a slot frees up.
type pacing struct {
	interval time.Duration
	burst    int
}

// paced offers rate bundles per second in one burst per millisecond.
func paced(rate float64) pacing {
	return pacing{interval: time.Millisecond, burst: max(1, int(rate/1000))}
}

// collectClient drives ERASMUS collection bundles over one
// transport.Net socket, at most depth of them in flight — a gateway
// draining stored self-measurements. Closed loop, the next bundle goes
// out the moment a verdict returns; paced, bundles fall due on a
// schedule and wait for a free slot if the verifier is behind. Each
// prover has at most one bundle outstanding, so a verdict is matched by
// its addressee.
type collectClient struct {
	tr     *transport.Net
	fl     *fleet
	daemon string
	depth  int
	or     *oracle
	trc    *tracer

	idx        map[string]int32
	done       chan completion
	challenged chan time.Time
	slots      []collectSlot
	lastRound  []int // last round each prover sent, -1 before any
	inflight   int
	ops        uint64

	// onAccept observes every op resolved as expected: when its verdict
	// arrived, how long that was after the op was due, and how late the
	// generator itself sent it.
	onAccept func(at time.Time, latency, late time.Duration)
	// win, when set with a tracer, alternates tracing by its slices.
	win *sliceWindow
}

func newCollectClient(addr string, fl *fleet, depth int, or *oracle) (*collectClient, error) {
	tr, err := transport.Dial(addr, transport.NetConfig{})
	if err != nil {
		return nil, err
	}
	c := &collectClient{
		tr: tr, fl: fl, daemon: "rattd", depth: depth, or: or,
		idx: make(map[string]int32, len(fl.names)),
		// Buffered past the in-flight depth: the receive worker must
		// never block on the generator.
		done:       make(chan completion, 4*depth+64),
		challenged: make(chan time.Time, 4),
		slots:      make([]collectSlot, len(fl.names)),
		lastRound:  make([]int, len(fl.names)),
	}
	for i, name := range fl.names {
		c.idx[name] = int32(i)
		c.lastRound[i] = -1
		if err := tr.BindFrames(name, c.onFrame); err != nil {
			tr.Close()
			return nil, err
		}
	}
	return c, nil
}

func (c *collectClient) close() { c.tr.Close() }

// onFrame runs on the transport's receive worker.
func (c *collectClient) onFrame(f *transport.Frame) {
	at := time.Now()
	switch f.Kind {
	case transport.KindVerdict:
		if i, ok := c.idx[f.To]; ok {
			c.done <- completion{prover: i, ok: f.OK, at: at}
		}
	case transport.KindChallenge:
		select {
		case c.challenged <- at:
		default:
		}
	}
}

// sequential yields the steady stream: every prover in turn sends the
// current round's bundle, then the round advances — fresh counters
// every round, all expected to verify.
func (c *collectClient) sequential(prover, round *int) func() (collectOp, bool) {
	return func() (collectOp, bool) {
		op := collectOp{prover: *prover, round: *round, wantOK: true, class: "fresh"}
		if *prover++; *prover == len(c.fl.names) {
			*prover, *round = 0, *round+1
		}
		return op, true
	}
}

// take limits a stream of ops to its first n.
func take(n int, next func() (collectOp, bool)) func() (collectOp, bool) {
	return func() (collectOp, bool) {
		if n == 0 {
			return collectOp{}, false
		}
		n--
		return next()
	}
}

// pump sends ops from next, at most depth in flight and no faster than
// pace offers them, until next runs dry or until passes (zero: no
// deadline), then waits for what is still outstanding.
func (c *collectClient) pump(next func() (collectOp, bool), pace pacing, until time.Time) error {
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	// wake fires at the next due instant of a paced load.
	wake := time.NewTimer(time.Hour)
	defer wake.Stop()
	start := time.Now()
	stopped := false
	for sent := 0; ; {
		for c.inflight < c.depth && !stopped {
			now := time.Now()
			due := now
			if pace.burst > 0 {
				if due = start.Add(time.Duration(sent/pace.burst) * pace.interval); now.Before(due) {
					if !wake.Stop() {
						select {
						case <-wake.C:
						default:
						}
					}
					wake.Reset(due.Sub(now))
					break
				}
			}
			if !until.IsZero() && !due.Before(until) {
				stopped = true
				break
			}
			op, ok := next()
			if !ok {
				stopped = true
				break
			}
			if err := c.send(op, due); err != nil {
				return err
			}
			sent++
		}
		if c.inflight == 0 && stopped {
			return nil
		}
		select {
		case done := <-c.done:
			c.resolve(done)
		case now := <-tick.C:
			c.expire(now)
		case <-wake.C:
		}
	}
}

func (c *collectClient) send(op collectOp, due time.Time) error {
	s := &c.slots[op.prover]
	if s.inflight {
		return fmt.Errorf("prover %d already has a bundle in flight", op.prover)
	}
	reports, err := c.fl.bundle(op.round)
	if err != nil {
		return err
	}
	c.ops++
	now := time.Now()
	if c.trc != nil && c.win != nil {
		c.trc.paused.Store(!tracedSlice(c.win.index(now)))
	}
	*s = collectSlot{inflight: true, wantOK: op.wantOK, class: op.class, op: c.ops, traced: c.trc.sampled(c.ops), due: due, sentAt: now}
	c.or.sent(op.class, 1)
	err = c.tr.Send(transport.Msg{
		From: c.fl.names[op.prover], To: c.daemon, Kind: transport.KindCollection, Reports: reports,
	})
	if s.traced {
		s.sendEnd = time.Now()
	}
	if err != nil {
		return err
	}
	if op.round > c.lastRound[op.prover] {
		c.lastRound[op.prover] = op.round
	}
	c.inflight++
	return nil
}

func (c *collectClient) resolve(done completion) {
	s := &c.slots[done.prover]
	if !s.inflight {
		return // verdict of an op already written off
	}
	s.inflight = false
	c.inflight--
	if c.or.verdict(s.class, s.wantOK, done.ok) && c.onAccept != nil {
		c.onAccept(done.at, done.at.Sub(s.due), s.sentAt.Sub(s.due))
	}
	if s.traced {
		now := time.Now()
		root := c.trc.add("collect", s.due, now, -1, s.op)
		c.trc.add("queue", s.due, s.sentAt, root, s.op)
		c.trc.add("send", s.sentAt, s.sendEnd, root, s.op)
		c.trc.add("wait", s.sendEnd, done.at, root, s.op)
		c.trc.add("handler", done.at, now, root, s.op)
	}
}

// expire writes off ops that have waited past opTimeout.
func (c *collectClient) expire(now time.Time) {
	if c.inflight == 0 {
		return
	}
	for i := range c.slots {
		s := &c.slots[i]
		if s.inflight && now.Sub(s.sentAt) > opTimeout {
			s.inflight = false
			c.inflight--
			c.or.lost(s.class, 1, "no verdict within "+opTimeout.String())
		}
	}
}

// hello sends one SMART hello from prover 0 and returns the instant
// its challenge arrived — the "first answered hello" of the restore
// probe.
func (c *collectClient) hello(timeout time.Duration) (time.Time, error) {
	if err := c.tr.Send(transport.Msg{From: c.fl.names[0], To: c.daemon, Kind: transport.KindHello}); err != nil {
		return time.Time{}, err
	}
	select {
	case at := <-c.challenged:
		return at, nil
	case <-time.After(timeout):
		return time.Time{}, fmt.Errorf("no challenge within %v", timeout)
	}
}

// sliceWindow buckets what a timed window observed into fixed slices,
// so that latency can be judged slice by slice (stats.go) and a traced
// run can alternate traced and untraced slices.
type sliceWindow struct {
	start time.Time
	width time.Duration
	count []int64     // ops (or reports) per slice
	lat   [][]float64 // latency samples (ms) per slice
	late  []float64   // how late the generator sent each op (ms)
}

func newSliceWindow(start time.Time, width time.Duration, n int) *sliceWindow {
	return &sliceWindow{start: start, width: width, count: make([]int64, n), lat: make([][]float64, n)}
}

// observe files one resolved op under the slice it completed in;
// completions after the last slice are left out of the figures (the
// oracle still accounts for them).
func (w *sliceWindow) observe(at time.Time, latency, late time.Duration, units int64) {
	i := w.index(at)
	if i < 0 || i >= len(w.count) {
		return
	}
	w.count[i] += units
	w.lat[i] = append(w.lat[i], float64(latency.Nanoseconds())/1e6)
	w.late = append(w.late, float64(late.Nanoseconds())/1e6)
}

// index is the slice an instant falls in (possibly out of range).
func (w *sliceWindow) index(at time.Time) int { return int(at.Sub(w.start) / w.width) }

// split returns two windows holding w's untraced (even) and traced
// (odd) slices.
func (w *sliceWindow) split() (plain, traced *sliceWindow) {
	plain = &sliceWindow{start: w.start, width: w.width, late: w.late}
	traced = &sliceWindow{start: w.start, width: w.width}
	for i := range w.count {
		dst := plain
		if tracedSlice(i) {
			dst = traced
		}
		dst.count = append(dst.count, w.count[i])
		dst.lat = append(dst.lat, w.lat[i])
	}
	return plain, traced
}

func (w *sliceWindow) end() time.Time { return w.start.Add(time.Duration(len(w.count)) * w.width) }

// rate is the window's throughput in units per second.
func (w *sliceWindow) rate() float64 {
	return float64(w.total()) / (time.Duration(len(w.count)) * w.width).Seconds()
}

func (w *sliceWindow) latency() *sliceStats {
	s := &sliceStats{}
	for _, l := range w.lat {
		s.add(l)
	}
	return s
}

func (w *sliceWindow) total() int64 {
	var n int64
	for _, c := range w.count {
		n += c
	}
	return n
}
