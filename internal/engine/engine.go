// Package engine defines the configuration block shared by every
// simulation engine in the repository. The same three knobs —
// determinism seed, worker parallelism, trace suppression — used to be
// declared independently (with drifting names and doc comments) on
// experiments.WorldConfig, swarm.ShardedConfig and
// swarm.SelfFleetConfig; they now live here once and are embedded as
// `EngineConfig` in each of those structs.
package engine

// Config carries the cross-cutting engine knobs. It is embedded (under
// the alias EngineConfig) in each engine's own config struct, so the
// promoted field names read the same everywhere:
//
//	experiments.NewWorld(experiments.WorldConfig{
//		EngineConfig: experiments.EngineConfig{Seed: 7, NoTrace: true},
//		MemSize:      4096,
//	})
//
// None of these knobs ever changes simulation results — they select
// seeds, host-side scheduling, and observability only. Determinism
// across Parallelism values is pinned by tests.
type Config struct {
	// Seed derives every pseudorandom stream of the run: golden image
	// content, link jitter/loss draws, per-device PRF schedules.
	Seed uint64
	// Parallelism caps host-side worker fan-out for engines that shard
	// their work (0 = engine default, typically GOMAXPROCS; 1 = fully
	// serial). Engines without internal fan-out ignore it.
	Parallelism int
	// NoTrace drops the event log entirely where the engine supports
	// tracing (a nil trace.Log discards events). Monte Carlo hot loops
	// set it: formatting trace details otherwise dominates the
	// allocation profile.
	NoTrace bool
}
