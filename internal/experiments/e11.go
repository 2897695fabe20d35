package experiments

import (
	"fmt"
	"strings"
	"time"

	"saferatt/internal/swarm"
)

// E11Row measures swarm attestation at fleet scale: one collection
// round over N devices sharing a golden image, healthy vs 1% infected.
// WallNS records host CPU per round (the perf_opt target); the
// remaining columns show the copy-on-write and batched-verification
// economics that make the round cheap.
type E11Row struct {
	Devices  int
	Infected int // devices actually infected this round
	Detected int // infected devices flagged by the collector
	Missing  int // devices absent from the aggregate (always 0 here)
	// WallNS is host nanoseconds for the full round (measure + judge),
	// divided by rounds run.
	WallNS int64
	// DirtyBlocks is the fleet-wide count of materialized
	// (device-private) blocks after infection.
	DirtyBlocks int
	// ResidentKiB is the fleet image footprint: golden + dirty blocks
	// (Devices × image if every device held a full copy).
	ResidentKiB int
	// TagsComputed / Reports show batched-verification amortization:
	// expected tags computed vs reports judged.
	TagsComputed uint64
	Reports      uint64
}

// E11Config parameterizes the scaling sweep.
type E11Config struct {
	// DeviceCounts is the fleet-size sweep; default {100, 1000, 10000}.
	DeviceCounts []int
	// Rounds per fleet (wall time is averaged); default 3.
	Rounds int
	// Shards is the worker count inside each fleet round (0 =
	// parallel.Default()). Fleets are measured one at a time so that
	// WallNS is not polluted by sibling fleets.
	Shards int
}

func (c *E11Config) setDefaults() {
	if c.DeviceCounts == nil {
		c.DeviceCounts = []int{100, 1000, 10000}
	}
	if c.Rounds == 0 {
		c.Rounds = 3
	}
}

// E11SwarmScale sweeps fleet sizes, each healthy and with 1% infected
// devices. Rows come in pairs (healthy, infected) per device count.
// The sweep itself is serial — each fleet round is internally sharded,
// and wall-clock per round is the measured quantity.
func E11SwarmScale(cfg E11Config) []E11Row {
	cfg.setDefaults()
	var rows []E11Row
	for _, n := range cfg.DeviceCounts {
		for _, infect := range []bool{false, true} {
			rows = append(rows, e11Point(cfg, n, infect))
		}
	}
	return rows
}

func e11Point(cfg E11Config, devices int, infect bool) E11Row {
	const blockSize = 256
	s := must(swarm.NewSharded(swarm.ShardedConfig{
		EngineConfig: swarm.EngineConfig{Seed: uint64(devices), Parallelism: cfg.Shards},
		Devices:      devices,
		MemSize:      16 << 10,
		BlockSize:    blockSize,
	}))
	row := E11Row{Devices: devices}
	if infect {
		// Every 100th device (1%): a deterministic victim set.
		for i := 0; i < devices; i += 100 {
			if err := s.Mem(i).Poke(3*blockSize+1, 0x66); err != nil {
				panic("experiments: " + err.Error())
			}
			row.Infected++
		}
	}
	detected := map[string]bool{}
	start := time.Now()
	for r := 0; r < cfg.Rounds; r++ {
		res := must(s.Round([]byte(fmt.Sprintf("e11-%d-%d", devices, r))))
		row.Missing = len(res.Missing)
		for _, name := range res.Infected() {
			detected[name] = true
		}
	}
	row.WallNS = time.Since(start).Nanoseconds() / int64(cfg.Rounds)
	row.Detected = len(detected)
	row.DirtyBlocks = s.DirtyBlocks()
	row.ResidentKiB = s.ResidentBytes() >> 10
	bs := s.Collector.BatchStats()
	row.TagsComputed, row.Reports = bs.Computed, bs.Reports
	return row
}

// RenderE11 prints the swarm-scaling table.
func RenderE11(rows []E11Row) string {
	var b strings.Builder
	b.WriteString("E11: swarm at scale — copy-on-write images + sharded rounds + batched verification\n")
	fmt.Fprintf(&b, "%-9s %-9s %-9s %-8s %-12s %-7s %-12s %-14s\n",
		"devices", "infected", "detected", "missing", "round-ms", "dirty", "resident-KiB", "tags/reports")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9d %-9d %-9d %-8d %-12.2f %-7d %-12d %d/%d\n",
			r.Devices, r.Infected, r.Detected, r.Missing,
			float64(r.WallNS)/1e6, r.DirtyBlocks, r.ResidentKiB, r.TagsComputed, r.Reports)
	}
	b.WriteString("resident-KiB stays near one golden image; tags/reports shows per-round verification amortization\n")
	return b.String()
}
