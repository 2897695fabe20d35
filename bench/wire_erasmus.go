package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"time"
)

// erasmusRig is one set-up of the wire_erasmus workload: fleet and
// templates built, child daemon running as an operator would run it
// (background checkpoints every second), client socket bound, and the
// warm-up round done — every prover enrolled, the daemon's tag cache,
// routes and wire version learned.
type erasmusRig struct {
	fl     *fleet
	d      *daemon
	cl     *collectClient
	ckPath string
	args   []string // daemon flags, reused by the -restore restart

	prover, round int // position of the steady stream
	// baseAccepted is the oracle's fresh-accepted tally before this rig
	// existed (earlier set-up repetitions talked to daemons of their own).
	baseAccepted int64
}

// warmupLap is how many warm-up ops make one piece of set-up work.
const warmupLap = 2048

func (r *erasmusRig) teardown() {
	if r.cl != nil {
		r.cl.close()
	}
	if r.d != nil {
		r.d.kill()
	}
}

func setupErasmus(cfg runConfig, bin string, or *oracle, lap func()) (*erasmusRig, error) {
	sz := cfg.sz
	fl, err := newFleet(cfg.Seed, sz.erasmusProvers, 4<<10, 256, 4)
	if err != nil {
		return nil, err
	}
	// Size the template pool for the fastest window worth planning for
	// (150k bundles/s), so no template is hashed inside it.
	rounds := 4 + int(float64(cfg.Seconds+2)*150000)/sz.erasmusProvers
	if err := fl.prebuild(rounds); err != nil {
		return nil, err
	}
	lap()
	dir, err := tempDir("erasmus-")
	if err != nil {
		return nil, err
	}
	r := &erasmusRig{fl: fl, ckPath: filepath.Join(dir, "ck"), baseAccepted: or.class("fresh").accepted}
	r.args = []string{
		"-seed", strconv.FormatUint(cfg.Seed, 10), "-mem", "4096", "-block", "256",
		"-checkpoint", r.ckPath, "-checkpoint-interval", "1s",
	}
	if r.d, err = startDaemon(bin, cfg.host.ChildGOMAXPROCS, r.args...); err != nil {
		return nil, err
	}
	lap()
	if r.cl, err = newCollectClient(r.d.addr, fl, sz.erasmusDepth, or); err != nil {
		r.teardown()
		return nil, err
	}
	lap()
	// Untimed warm-up: round 0 from every prover, closed loop.
	enrolled := 0
	r.cl.onAccept = func(time.Time, time.Duration, time.Duration) {
		if enrolled++; enrolled%warmupLap == 0 {
			lap()
		}
	}
	err = r.cl.pump(take(len(fl.names), r.cl.sequential(&r.prover, &r.round)), pacing{}, time.Time{})
	r.cl.onAccept = nil
	if err == nil {
		// ... then the steady stream at the working rate.
		err = r.cl.pump(r.cl.sequential(&r.prover, &r.round), paced(sz.erasmusRate), time.Now().Add(sz.warm))
	}
	if err != nil {
		r.teardown()
		return nil, err
	}
	return r, nil
}

// window runs the steady stream for the given number of seconds, paced
// or closed loop, and returns what it observed slice by slice.
func (r *erasmusRig) window(seconds int, sz sizes, pace pacing) (*sliceWindow, error) {
	w := newSliceWindow(time.Now(), sz.second/slicesPerSecond, seconds*slicesPerSecond)
	history := int64(r.fl.history)
	r.cl.onAccept = func(at time.Time, latency, late time.Duration) { w.observe(at, latency, late, history) }
	r.cl.win = w
	defer func() { r.cl.onAccept, r.cl.win = nil, nil }()
	return w, r.cl.pump(r.cl.sequential(&r.prover, &r.round), pace, w.end())
}

func runWireErasmus(cfg runConfig, res *runResult) error {
	or := res.oracle
	bin, err := startWire(res)
	if err != nil {
		return err
	}

	rig, err := setUp(res, cfg.sz.setupReps, func(lap func()) (*erasmusRig, error) { return setupErasmus(cfg, bin, or, lap) })
	if err != nil {
		return err
	}
	defer rig.teardown()

	// The measured window offers collections at a fixed rate well inside
	// what the daemon can verify. A traced run gives half its time to
	// that, spans recorded (one op in 64) in every other slice with the
	// slices in between as the untraced reference, and the other half to
	// the closed loop that measures what the daemon can verify at most.
	paceFor, closedFor := cfg.Seconds, 0
	if cfg.Trace {
		paceFor = max(1, cfg.Seconds/2)
		closedFor = max(1, cfg.Seconds-paceFor)
		res.tracer = newTracer(traceSampling)
		rig.cl.trc = res.tracer
	}
	cpu0, err := rig.d.cpu()
	if err != nil {
		return err
	}
	net0 := rig.cl.tr.Stats()
	rss := sampleRSS(rig.d.cmd.Process.Pid)
	w, err := rig.window(paceFor, cfg.sz, paced(cfg.sz.erasmusRate))
	if err != nil {
		return err
	}
	rig.cl.trc = nil
	cpu1, err := rig.d.cpu()
	if err != nil {
		return err
	}
	if err := rss.finish(res); err != nil {
		return err
	}
	net1 := rig.cl.tr.Stats()
	accepted := w.total()
	var traced *sliceWindow
	if cfg.Trace {
		w, traced = w.split()
	}
	res.put("ops_per_s", w.rate(), len(w.count))
	p50, samples := res.latency(w.latency())
	res.logf("paced loop: %.0f bundles/s offered in bursts of one per millisecond, at most %d in flight, latency from the due instant",
		cfg.sz.erasmusRate, cfg.sz.erasmusDepth)

	var capacity *sliceWindow
	var capacityCPU time.Duration
	if cfg.Trace {
		if capacity, err = rig.window(closedFor, cfg.sz, pacing{}); err != nil {
			return err
		}
		cpu2, err := rig.d.cpu()
		if err != nil {
			return err
		}
		capacityCPU = cpu2 - cpu1
	}

	// Stop the daemon as an operator would; its own counters must agree
	// with the client's tally.
	st, err := rig.d.stop()
	if err != nil {
		return err
	}
	wantAccepted := uint64(or.class("fresh").accepted-rig.baseAccepted) * uint64(rig.fl.history)
	or.check(st.Accepted == wantAccepted, "daemon accepted=%d, client saw %d reports accepted", st.Accepted, wantAccepted)
	or.check(st.Rejected == 0 && st.Replays == 0, "daemon rejected=%d replays=%d on an all-fresh stream", st.Rejected, st.Replays)
	or.check(st.Enrolled == uint64(len(rig.fl.names)), "daemon enrolled=%d, fleet is %d", st.Enrolled, len(rig.fl.names))
	or.check(st.HasCkpt && st.CkptErrors == 0, "daemon checkpointing: present=%v errors=%d", st.HasCkpt, st.CkptErrors)

	// Restart from the checkpoint chain: time to the first answered
	// hello, then the replay and freshness probes.
	restoreS, probe, err := rig.restoreProbe(bin, cfg, or)
	if err != nil {
		return err
	}
	res.logf("restore: rattd -restore answered its first hello after %.3fs", restoreS)

	if cfg.Trace {
		res.lateness(w.late)
		res.put("op.cpu_us", float64((cpu1-cpu0).Microseconds())/float64(max(accepted, 1)), int(accepted))
		capRate := capacity.rate()
		capP50, capN := capacity.latency().p50()
		res.put("erasmus.capacity_per_s", capRate, len(capacity.count))
		res.put("erasmus.capacity_rtt_p50_ms", capP50, capN)
		res.put("erasmus.capacity_cpu_us", float64(capacityCPU.Microseconds())/float64(max(capacity.total(), 1)), int(capacity.total()))
		res.logf("closed loop, %d in flight: %.0f reports/s verified, p50 %.4f ms", cfg.sz.erasmusDepth, capRate, capP50)

		res.clientCounters(net0, net1, accepted/int64(rig.fl.history), accepted)
		res.daemonCounters(st)
		res.put("rattd.ckpt_fulls", float64(st.CkptFulls), 0)
		res.put("rattd.ckpt_deltas", float64(st.CkptDeltas), 0)
		res.put("rattd.ckpt_compactions", float64(st.CkptCompactions), 0)
		res.put("rattd.ckpt_last_write_ms", float64(st.CkptLastWrite.Microseconds())/1e3, 1)
		res.put("rattd.restore_s", restoreS, 1)
		res.put("rattd.enrolled_per_legit_prover", float64(probe.Enrolled)/float64(len(rig.fl.names)), 0)
		tp50, _ := traced.latency().p50()
		res.put("trace.overhead_share", tp50/p50-1, samples)
		res.tracer.putSpanMetrics(res.Metrics, "queue", "send", "wait", "handler")
		if err := runLadder(cfg, res, rig.fl, capRate); err != nil {
			return err
		}
		// The verify path behind the daemon, replayed in process so its
		// tag-cache counters can be read (the daemon prints none).
		if err := runDaemonLayers(cfg, res, wWireErasmus); err != nil {
			return err
		}
		runTransportLayers(cfg, res)
		runPersistenceLayers(cfg, res)
		runCoreLayers(cfg, res)
	}
	return nil
}

// restoreProbe restarts the daemon with -restore on the checkpoint the
// first incarnation left, measures exec -> first challenge, and checks
// that restored state still tells replays from fresh counters: the
// most recent bundle of the first probes provers must be rejected, the
// next round's accepted.
func (r *erasmusRig) restoreProbe(bin string, cfg runConfig, or *oracle) (float64, *daemonStats, error) {
	d, err := startDaemon(bin, cfg.host.ChildGOMAXPROCS, append(r.args, "-restore")...)
	if err != nil {
		return 0, nil, err
	}
	defer d.kill()
	if err := r.cl.tr.AddRoute(r.cl.daemon, d.addr); err != nil {
		return 0, nil, err
	}
	at, err := r.cl.hello(10 * time.Second)
	if err != nil {
		return 0, nil, fmt.Errorf("restored daemon: %v", err)
	}
	restoreS := at.Sub(d.started).Seconds()

	n := cfg.sz.probes
	if n > len(r.fl.names) {
		n = len(r.fl.names)
	}
	// each yields one op per prover 0..n-1.
	each := func(op func(prover int) collectOp) func() (collectOp, bool) {
		i := -1
		return take(n, func() (collectOp, bool) { i++; return op(i), true })
	}
	if err := r.cl.pump(each(func(i int) collectOp {
		return collectOp{prover: i, round: r.cl.lastRound[i], wantOK: false, class: "replay-after-restore"}
	}), pacing{}, time.Time{}); err != nil {
		return 0, nil, err
	}
	freshRound := r.round + 1 // past anything the window sent
	if err := r.cl.pump(each(func(i int) collectOp {
		return collectOp{prover: i, round: freshRound, wantOK: true, class: "fresh-after-restore"}
	}), pacing{}, time.Time{}); err != nil {
		return 0, nil, err
	}
	st, err := d.stop()
	if err != nil {
		return 0, nil, err
	}
	h := uint64(r.fl.history)
	or.check(st.Accepted == uint64(n)*h, "restored daemon accepted=%d, want %d fresh reports", st.Accepted, uint64(n)*h)
	or.check(st.Rejected == uint64(n)*h && st.Replays == uint64(n)*h,
		"restored daemon rejected=%d replays=%d, want %d replayed reports", st.Rejected, st.Replays, uint64(n)*h)
	or.check(st.Enrolled == uint64(len(r.fl.names)), "restored daemon enrolled=%d, fleet is %d", st.Enrolled, len(r.fl.names))
	return restoreS, st, nil
}
