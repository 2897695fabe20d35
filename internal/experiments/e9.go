package experiments

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"saferatt/internal/channel"
	"saferatt/internal/costmodel"
	"saferatt/internal/device"
	"saferatt/internal/mem"
	"saferatt/internal/parallel"
	"saferatt/internal/sim"
	"saferatt/internal/softratt"
)

// E9Row is one point of the software-based-RA experiment (§2.1): a
// redirecting adversary with the given per-access overhead against a
// timing verifier whose threshold must absorb the given network jitter.
type E9Row struct {
	OverheadPct int          // adversary per-access overhead (% of honest)
	Jitter      sim.Duration // network jitter the RTT budget must cover
	Iterations  int
	Trials      int
	// FalseNegatives: adversary accepted (attack slipped under the
	// threshold). FalsePositives: honest device rejected (jitter
	// pushed it past the threshold).
	FalseNegatives int
	FalsePositives int
}

// E9Config parameterizes the sweep.
type E9Config struct {
	Overheads  []int          // default {10, 40}
	Jitters    []sim.Duration // default 0.1ms..50ms
	Iterations int            // default 1_000_000
	Trials     int            // default 20
	Seed       uint64
	// Parallelism is the trial worker count (0 = parallel.Default()).
	Parallelism int
}

func (c *E9Config) setDefaults() {
	if c.Overheads == nil {
		c.Overheads = []int{10, 40}
	}
	if c.Jitters == nil {
		c.Jitters = []sim.Duration{100 * sim.Microsecond, sim.Millisecond,
			10 * sim.Millisecond, 50 * sim.Millisecond}
	}
	if c.Iterations == 0 {
		c.Iterations = 1_000_000
	}
	if c.Trials == 0 {
		c.Trials = 20
	}
}

const e9PerAccess = 50 * sim.Nanosecond

// E9SoftwareRA measures both error rates of Pioneer-style timing
// verification as jitter grows: the threshold is set to the honest
// compute time + mean RTT + 2x jitter, so false positives stay rare and
// the attack succeeds exactly when its overhead hides inside the
// budget — the §2.1 fragility, quantified.
func E9SoftwareRA(cfg E9Config) []E9Row {
	cfg.setDefaults()
	var rows []E9Row
	for _, over := range cfg.Overheads {
		for _, jitter := range cfg.Jitters {
			rows = append(rows, e9Point(cfg, over, jitter))
		}
	}
	return rows
}

func e9Point(cfg E9Config, overheadPct int, jitter sim.Duration) E9Row {
	row := E9Row{OverheadPct: overheadPct, Jitter: jitter,
		Iterations: cfg.Iterations, Trials: cfg.Trials}
	latency := 2 * sim.Millisecond

	run := func(trial int, adversarial bool) softratt.Verdict {
		k := sim.NewKernel()
		g := mem.RandomGolden(8192, 512, 0, rand.New(rand.NewPCG(cfg.Seed+uint64(trial), 0xE9)))
		m := mem.NewShared(g, mem.SharedConfig{Clock: k.Now})
		dev := device.New(device.Config{Kernel: k, Mem: m, Profile: costmodel.ODROIDXU4()})
		link := channel.New(channel.Config{Kernel: k, Latency: latency, Jitter: jitter,
			Seed: cfg.Seed + uint64(trial)*3 + boolU64(adversarial)})
		ref := g.Bytes()
		// Budget: mean RTT (2 legs) plus 2x jitter headroom.
		budget := 2*latency + 2*jitter
		v := softratt.NewVerifier("vrf", k, link, ref, e9PerAccess, budget)
		p := softratt.NewProver("prv", dev, link, e9PerAccess)
		if adversarial {
			if err := m.Poke(3000, 0xEE); err != nil {
				panic("experiments: " + err.Error())
			}
			p.AccessOverhead = e9PerAccess * sim.Duration(overheadPct) / 100
			p.Image = func() []byte { return ref }
		}
		v.Challenge("prv", cfg.Iterations)
		k.Run()
		if len(v.Verdicts) == 0 {
			return softratt.Verdict{Reason: "no response"}
		}
		return v.Verdicts[0]
	}

	// Each trial seeds its kernel, memory and link purely from
	// (Seed, trial, adversarial), so the pairs shard across workers.
	outcomes := parallel.Map(cfg.Parallelism, cfg.Trials, func(i int) [2]bool {
		return [2]bool{run(i, true).OK, run(i, false).OK}
	})
	for _, o := range outcomes {
		if o[0] {
			row.FalseNegatives++
		}
		if !o[1] {
			row.FalsePositives++
		}
	}
	return row
}

// RenderE9 prints the software-RA table.
func RenderE9(rows []E9Row) string {
	var b strings.Builder
	b.WriteString("E9 (§2.1): software-based RA (Pioneer-style) vs redirection malware\n")
	fmt.Fprintf(&b, "%-10s %-12s %-12s %-8s %-10s %-10s\n",
		"overhead", "jitter", "iterations", "trials", "false-neg", "false-pos")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-12v %-12d %-8d %-10d %-10d\n",
			fmt.Sprintf("%d%%", r.OverheadPct), r.Jitter, r.Iterations, r.Trials,
			r.FalseNegatives, r.FalsePositives)
	}
	b.WriteString("false-neg = attack accepted (threshold swallowed the overhead);\n")
	b.WriteString("the paper's caveat: timing-based RA degrades as jitter grows\n")
	return b.String()
}
