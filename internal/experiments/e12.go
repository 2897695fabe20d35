package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"saferatt/internal/qoa"
	"saferatt/internal/sim"
	"saferatt/internal/swarm"
)

// E12 runs the long-horizon fleet self-measurement experiment: 10k
// ERASMUS/SeED devices measuring themselves for a day of virtual time
// per QoA operating point (T_M, T_C), with transient infections and a
// collecting verifier. Each row reports the detection-latency
// distribution against the Fig. 5 closed form (≈ T_M/2 + T_C/2 from
// infection end) and the scheduler throughput that pays for it —
// events/sec and ns/event on the host. The kernel keeps one event
// queue and chooses its shape itself (internal/sim); bench/ tracks its
// cost as sim.schedule_ns_per_event.
type E12Config struct {
	// Devices is the fleet size; default 10_000.
	Devices int
	// Horizon is virtual time per operating point; default 24 h.
	Horizon sim.Duration
	// TMs and TCs span the QoA grid; defaults {2 min, 10 min} ×
	// {30 min, 2 h}.
	TMs []sim.Duration
	TCs []sim.Duration
	// Modes selects the schedulers; default both ERASMUS and SeED.
	Modes []swarm.SelfMode
	Seed  uint64
	// Shards is the worker count (0 = parallel.Default()); results are
	// identical for any value.
	Shards int
}

// e12Dwell is how long each transient infection stays.
const e12Dwell = 5 * sim.Minute

func (c *E12Config) setDefaults() {
	if c.Devices == 0 {
		c.Devices = 10_000
	}
	if c.Horizon == 0 {
		c.Horizon = 24 * sim.Hour
	}
	if c.TMs == nil {
		c.TMs = []sim.Duration{2 * sim.Minute, 10 * sim.Minute}
	}
	if c.TCs == nil {
		c.TCs = []sim.Duration{30 * sim.Minute, 2 * sim.Hour}
	}
	if c.Modes == nil {
		c.Modes = []swarm.SelfMode{swarm.SelfErasmus, swarm.SelfSeED}
	}
}

// E12Row is one QoA operating point of one scheduler mode.
type E12Row struct {
	Mode   string
	TM, TC sim.Duration

	Devices    int
	Infections int
	Detected   int
	Missed     int
	// DetectRate is Detected/Infections; PredictedDetect is the §3.3
	// closed form min(1, Dwell/TM) for a uniform phase.
	DetectRate      float64
	PredictedDetect float64
	// MeanLatency / P95Latency summarize verifier-side detection
	// latency from infection end; PredictedLatency ≈ TM/2 + TC/2.
	MeanLatency      sim.Duration
	P95Latency       sim.Duration
	PredictedLatency sim.Duration

	Measurements uint64
	Reports      uint64
	// Events is the kernel-event count across the fleet (invariant);
	// WallNS, EventsPerSec and NsPerEvent are host-cost measurements
	// and are zeroed in determinism comparisons.
	Events       uint64
	WallNS       int64
	EventsPerSec float64
	NsPerEvent   float64
}

// E12FleetSelf sweeps the QoA grid. Points run serially — each fleet is
// internally sharded, and per-point wall time is a measured quantity.
func E12FleetSelf(cfg E12Config) []E12Row {
	cfg.setDefaults()
	var rows []E12Row
	for _, mode := range cfg.Modes {
		for _, tm := range cfg.TMs {
			for _, tc := range cfg.TCs {
				rows = append(rows, e12Point(cfg, mode, tm, tc))
			}
		}
	}
	return rows
}

func e12Point(cfg E12Config, mode swarm.SelfMode, tm, tc sim.Duration) E12Row {
	start := time.Now()
	res, err := swarm.RunSelfFleet(swarm.SelfFleetConfig{
		EngineConfig: swarm.EngineConfig{
			Seed:        cfg.Seed + uint64(tm/sim.Second)<<16 + uint64(tc/sim.Second),
			Parallelism: cfg.Shards,
		},
		Devices:    cfg.Devices,
		Mode:       mode,
		TM:         tm,
		TC:         tc,
		Horizon:    cfg.Horizon,
		InfectRate: 0.05,
		Dwell:      e12Dwell,
	})
	if err != nil {
		panic("experiments: e12: " + err.Error())
	}
	wall := time.Since(start).Nanoseconds()
	row := E12Row{
		Mode: mode.String(), TM: tm, TC: tc,
		Devices:          res.Devices,
		Infections:       res.Infections,
		Detected:         res.Detected,
		Missed:           res.Missed,
		PredictedDetect:  qoa.TransientDetectProb(e12Dwell, tm),
		PredictedLatency: qoa.MeanDetectionLatency(tm, tc),
		Measurements:     res.Measurements,
		Reports:          res.Reports,
		Events:           res.Events,
		WallNS:           wall,
	}
	if res.Infections > 0 {
		row.DetectRate = float64(res.Detected) / float64(res.Infections)
	}
	if n := len(res.Latencies); n > 0 {
		lats := append([]sim.Duration(nil), res.Latencies...)
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		var sum sim.Duration
		for _, l := range lats {
			sum += l
		}
		row.MeanLatency = sum / sim.Duration(n)
		row.P95Latency = lats[n*95/100]
	}
	if wall > 0 {
		row.EventsPerSec = float64(res.Events) / (float64(wall) / 1e9)
		row.NsPerEvent = float64(wall) / float64(res.Events)
	}
	return row
}

// e12Dur renders a duration compactly in minutes (the natural unit of
// the QoA grid).
func e12Dur(d sim.Duration) string {
	if d%sim.Minute == 0 {
		return fmt.Sprintf("%dm", d/sim.Minute)
	}
	return fmt.Sprintf("%.1fm", float64(d)/float64(sim.Minute))
}

// RenderE12 prints the QoA grid with throughput columns.
func RenderE12(rows []E12Row) string {
	var b strings.Builder
	b.WriteString("E12: long-horizon fleet self-measurement — QoA sweep over (T_M, T_C)\n")
	fmt.Fprintf(&b, "%-8s %-5s %-5s %-8s %-7s %-9s %-9s %-9s %-9s %-11s %-7s %-9s\n",
		"mode", "tm", "tc", "infected", "caught", "p/pred", "mean-lat", "p95-lat", "pred-lat", "events", "Mev/s", "ns/event")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-5s %-5s %-8d %-7d %.2f/%.2f %-9s %-9s %-9s %-11d %-7.2f %-9.1f\n",
			r.Mode, e12Dur(r.TM), e12Dur(r.TC), r.Infections, r.Detected,
			r.DetectRate, r.PredictedDetect,
			e12Dur(r.MeanLatency), e12Dur(r.P95Latency), e12Dur(r.PredictedLatency),
			r.Events, r.EventsPerSec/1e6, r.NsPerEvent)
	}
	b.WriteString("detection latency is measured from infection end to the collection that exposes it (Fig. 5: ≈ T_M/2 + T_C/2)\n")
	b.WriteString("Mev/s and ns/event are host scheduler throughput: one event queue, chosen by the kernel; bench/ tracks it as sim.schedule_ns_per_event\n")
	return b.String()
}
