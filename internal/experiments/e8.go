package experiments

import (
	"fmt"
	"strings"

	"saferatt/internal/channel"
	"saferatt/internal/core"
	"saferatt/internal/malware"
	"saferatt/internal/parallel"
	"saferatt/internal/prover"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
	"saferatt/internal/transport"
)

// E8Result reproduces the §3.3 SeED analysis as three measured
// properties.
type E8Result struct {
	// LossRows: false-positive "missing report" alarms as channel loss
	// grows (SeED's unidirectional-channel caveat).
	LossRows []E8LossRow
	// ReplayInjected / ReplayAccepted: a recording adversary re-sends
	// old reports; the counter check must reject all of them.
	ReplayInjected int
	ReplayAccepted int
	// SecretEscapes / LeakedEscapes: transient malware trials against
	// a secret schedule (detected ∝ dwell/period) vs a leaked schedule
	// (malware erases itself just before each trigger: escapes).
	ScheduleTrials int
	SecretEscapes  int
	LeakedEscapes  int
}

// E8LossRow is one loss-rate point.
type E8LossRow struct {
	Loss      float64
	Triggers  int
	Delivered int
	Missing   int // watchdog alarms (false positives: device was honest)
	Accepted  int
}

// e8Period is the SeED base period.
const e8Period = 5 * sim.Second

// E8Config parameterizes the run.
type E8Config struct {
	LossRates      []float64    // default 0, 0.05, 0.1, 0.2
	Horizon        sim.Duration // schedule observation window, default 120s
	ScheduleTrials int          // default 40
	Seed           uint64
	// Parallelism is the trial worker count (0 = parallel.Default()).
	Parallelism int
}

func (c *E8Config) setDefaults() {
	if c.LossRates == nil {
		c.LossRates = []float64{0, 0.05, 0.1, 0.2}
	}
	if c.Horizon == 0 {
		c.Horizon = 120 * sim.Second
	}
	if c.ScheduleTrials == 0 {
		c.ScheduleTrials = 40
	}
}

// E8SeED runs all three SeED property experiments.
func E8SeED(cfg E8Config) E8Result {
	cfg.setDefaults()
	res := E8Result{ScheduleTrials: cfg.ScheduleTrials}
	res.LossRows = parallel.Map(cfg.Parallelism, len(cfg.LossRates), func(i int) E8LossRow {
		return e8Loss(cfg, cfg.LossRates[i])
	})
	res.ReplayInjected, res.ReplayAccepted = e8Replay(cfg)
	res.SecretEscapes, res.LeakedEscapes = e8Schedule(cfg)
	return res
}

// e8Loss: honest prover, lossy channel; count watchdog false positives.
func e8Loss(cfg E8Config, loss float64) E8LossRow {
	opts := core.Preset(core.NoLock, suite.SHA256)
	w := NewWorld(WorldConfig{EngineConfig: EngineConfig{Seed: cfg.Seed + uint64(loss*1000)},
		MemSize: 4096, BlockSize: 256, ROMBlocks: 1, Opts: opts, Loss: loss})
	seed := []byte("e8-shared-seed")
	p := must(prover.NewSeED("prv", w.Dev, w.Tr, opts, seed, e8Period, e8Period/2, mpPrio))
	mon := w.Ver.MonitorSeED("prv", seed, e8Period, e8Period/2, 0, 2*e8Period)
	p.Start()
	// Keep the prover alive through the watchdog settle window so the
	// only "missing" alarms are genuine channel drops, not shutdown
	// artifacts.
	w.K.RunUntil(sim.Time(cfg.Horizon + 4*e8Period))
	mon.Stop()
	p.Stop()

	c := w.Ver.Counts()
	return E8LossRow{
		Loss:      loss,
		Triggers:  int(p.Counter()),
		Delivered: w.Link.Stats().Delivered,
		Missing:   c.Missing,
		Accepted:  c.Accepted,
	}
}

// e8Replay: a recording adversary replays every report once.
func e8Replay(cfg E8Config) (injected, accepted int) {
	opts := core.Preset(core.NoLock, suite.SHA256)
	var captured []transport.Msg
	adv := channel.AdversaryFunc(func(cm channel.Message) channel.Verdict {
		if m, ok := transport.MsgOf(cm); ok && m.Kind == transport.KindSeedReport && m.From == "prv" {
			captured = append(captured, m)
		}
		return channel.Deliver
	})
	w := NewWorld(WorldConfig{EngineConfig: EngineConfig{Seed: cfg.Seed + 5},
		MemSize: 4096, BlockSize: 256, ROMBlocks: 1, Opts: opts, Adv: adv})
	seed := []byte("e8-shared-seed")
	p := must(prover.NewSeED("prv", w.Dev, w.Tr, opts, seed, e8Period, e8Period/2, mpPrio))
	mon := w.Ver.MonitorSeED("prv", seed, e8Period, e8Period/2, 0, 2*e8Period)
	p.Start()
	w.K.RunUntil(sim.Time(cfg.Horizon / 2))
	p.Stop()
	mon.Stop()
	w.K.Run()

	before := w.Ver.Counts()
	for _, m := range captured {
		w.Tr.Send(m)
	}
	w.K.Run()
	after := w.Ver.Counts()
	return len(captured), after.Accepted - before.Accepted
}

// e8Schedule: transient malware with a fixed dwell per period. With
// the schedule secret it gambles on a random phase; with the schedule
// leaked (OnTrigger) it self-erases just before each trigger and
// re-infects after, escaping every measurement.
func e8Schedule(cfg E8Config) (secretEscapes, leakedEscapes int) {
	run := func(trial int, leaked bool) bool /*escaped*/ {
		opts := core.Preset(core.SMART, suite.SHA256)
		w := NewWorld(WorldConfig{
			EngineConfig: EngineConfig{Seed: cfg.Seed + uint64(trial)*31 + boolU64(leaked), NoTrace: true},
			MemSize:      4096, BlockSize: 256, ROMBlocks: 1, Opts: opts})
		seed := []byte{byte(trial), 0x88}
		p := must(prover.NewSeED("prv", w.Dev, w.Tr, opts, seed, e8Period, e8Period/2, mpPrio))
		var reports []*core.Report
		w.Tr.Bind("verifier", func(m transport.Msg) {
			if m.Kind == transport.KindSeedReport {
				reports = append(reports, m.Reports...)
			}
		})

		mw := malware.NewTransient(w.Dev, malwarePrio)
		block := 1 + trial%14
		if leaked {
			// §3.3 pitfall: software knows the attestation time;
			// malware disinfects just before and reappears after.
			p.OnTrigger = func(ctr uint64, at sim.Time) {
				w.K.At(at-sim.Time(50*sim.Millisecond), func() { mw.Erase() })
				w.K.At(at.Add(2*sim.Second), func() {
					mw.Task().Submit(sim.Microsecond, func() { _ = mw.Infect(block) })
				})
			}
		}
		// Initial infection with a dwell of 60% of the period,
		// repeating each period (persistent-but-hiding malware).
		if !leaked {
			dwell := e8Period * 6 / 10
			for k := 0; k < 8; k++ {
				t0 := sim.Time(e8Period * sim.Duration(k))
				mw.ScheduleDwell(block, t0.Add(sim.Duration(trial%5)*e8Period/5), t0.Add(sim.Duration(trial%5)*e8Period/5+dwell))
			}
		} else {
			mw.Task().Submit(sim.Microsecond, func() { _ = mw.Infect(block) })
		}

		p.Start()
		w.K.RunUntil(sim.Time(8 * e8Period))
		p.Stop()
		w.K.Run()

		for _, rep := range reports {
			if !w.VerifyLocally(rep, false) {
				return false // detected
			}
		}
		return true
	}

	// Trials are seeded by (Seed, trial, leaked) only, so the pairs
	// shard across workers; the counts reduce after the barrier.
	outcomes := parallel.Map(cfg.Parallelism, cfg.ScheduleTrials, func(i int) [2]bool {
		return [2]bool{run(i, false), run(i, true)}
	})
	for _, o := range outcomes {
		if o[0] {
			secretEscapes++
		}
		if o[1] {
			leakedEscapes++
		}
	}
	return secretEscapes, leakedEscapes
}

func boolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// RenderE8 prints the SeED property tables.
func RenderE8(r E8Result) string {
	var b strings.Builder
	b.WriteString("E8 (§3.3): SeED non-interactive attestation properties\n")
	b.WriteString("loss sweep (honest device; 'missing' = watchdog false positives):\n")
	fmt.Fprintf(&b, "  %-8s %-10s %-10s %-10s %-10s\n", "loss", "triggers", "delivered", "accepted", "missing")
	for _, row := range r.LossRows {
		fmt.Fprintf(&b, "  %-8.2f %-10d %-10d %-10d %-10d\n",
			row.Loss, row.Triggers, row.Delivered, row.Accepted, row.Missing)
	}
	fmt.Fprintf(&b, "replay: %d injected, %d accepted (monotonic counter)\n",
		r.ReplayInjected, r.ReplayAccepted)
	fmt.Fprintf(&b, "schedule secrecy (%d trials): transient escapes %d with secret schedule, %d with leaked schedule\n",
		r.ScheduleTrials, r.SecretEscapes, r.LeakedEscapes)
	return b.String()
}
