package saferatt

// One benchmark per paper artifact (see EXPERIMENTS.md). Each bench
// regenerates its figure/table data end to end; `go test -bench=. \
// -benchmem` therefore re-runs the whole evaluation. Benches use
// reduced Monte Carlo trial counts so an iteration stays sub-second;
// cmd/figures runs the full-fidelity versions.

import (
	"fmt"
	"runtime"
	"testing"

	"saferatt/internal/core"
	"saferatt/internal/costmodel"
	"saferatt/internal/experiments"
	"saferatt/internal/sim"
	"saferatt/internal/suite"
	"saferatt/internal/swarm"
)

// BenchmarkFig1_OnDemandTimeline regenerates the Figure 1 protocol
// timeline (challenge -> deferral -> t_s -> t_e -> report -> verify).
func BenchmarkFig1_OnDemandTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1Timeline()
		if r.TE <= r.TS {
			b.Fatal("bad timeline")
		}
	}
}

// BenchmarkFig2_Hash measures REAL hash throughput of this host for
// the figure's hash set — the host-side complement to the calibrated
// cost-model series.
func BenchmarkFig2_Hash(b *testing.B) {
	sizes := []int{4 << 10, 256 << 10, 4 << 20}
	for _, id := range suite.HashIDs() {
		for _, n := range sizes {
			b.Run(fmt.Sprintf("%s/%s", id, byteLabel(n)), func(b *testing.B) {
				h, err := suite.NewHash(id)
				if err != nil {
					b.Fatal(err)
				}
				buf := make([]byte, n)
				sum := make([]byte, 0, 64)
				b.SetBytes(int64(n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					h.Reset()
					h.Write(buf)
					sum = h.Sum(sum[:0])
				}
			})
		}
	}
}

// BenchmarkFig2_Sign measures real signature costs (constant in input
// size — the other half of the figure's crossover story).
func BenchmarkFig2_Sign(b *testing.B) {
	digest := make([]byte, 32)
	for i := range digest {
		digest[i] = byte(i)
	}
	for _, id := range []suite.SignerID{suite.RSA1024, suite.RSA2048, suite.ECDSA256, suite.ECDSA384} {
		b.Run(string(id), func(b *testing.B) {
			sg, err := suite.NewSigner(id)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sg.Sign(digest); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig2_CostModelSeries regenerates the full calibrated series
// (1 KB .. 2 GB x all algorithms).
func BenchmarkFig2_CostModelSeries(b *testing.B) {
	p := costmodel.ODROIDXU4()
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig2Series(p, nil)
		if len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkTable1_FeatureMatrix regenerates the measured Table 1
// (reduced trials per iteration).
func BenchmarkTable1_FeatureMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(experiments.Table1Config{Trials: 3, SMARMRounds: 5, Seed: uint64(i)})
		if len(rows) < 10 {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkFig4_ConsistencyWindows regenerates the lock/consistency
// window table.
func BenchmarkFig4_ConsistencyWindows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig4Windows()
		if len(rows) != 7 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkE5_FireAlarmLatency regenerates the §2.5 scenario at 1 MiB
// (simulated) plus the 1 GB analytic anchor.
func BenchmarkE5_FireAlarmLatency(b *testing.B) {
	cfg := experiments.E5Config{
		SimSizes:      []int{1 << 20},
		AnalyticSizes: []int{1000 << 20},
		Mechanisms:    []core.MechanismID{core.SMART, core.NoLock},
	}
	for i := 0; i < b.N; i++ {
		rows := experiments.E5FireAlarm(cfg)
		if len(rows) != 4 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkE6_SMARMEscape regenerates the §3.2 escape-probability
// Monte Carlo (reduced trials).
func BenchmarkE6_SMARMEscape(b *testing.B) {
	cfg := experiments.E6Config{BlockCounts: []int{32}, Rounds: []int{1, 3}, Trials: 25}
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		rows := experiments.E6SMARM(cfg)
		if len(rows) != 2 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkFig5_QoA regenerates the Figure 5 transient-detection sweep
// (reduced trials).
func BenchmarkFig5_QoA(b *testing.B) {
	cfg := experiments.E7Config{
		TM:     10 * sim.Second,
		Dwells: []sim.Duration{2 * sim.Second, 8 * sim.Second},
		Trials: 10,
	}
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		rows := experiments.E7QoA(cfg)
		if len(rows) != 2 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkE8_SeED regenerates the §3.3 SeED property experiments
// (reduced trials).
func BenchmarkE8_SeED(b *testing.B) {
	cfg := experiments.E8Config{
		LossRates:      []float64{0, 0.2},
		Horizon:        30 * sim.Second,
		ScheduleTrials: 4,
	}
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		res := experiments.E8SeED(cfg)
		if res.ReplayAccepted != 0 {
			b.Fatal("replay accepted")
		}
	}
}

// BenchmarkE9_SoftwareRA regenerates the §2.1 software-based-RA sweep
// (reduced trials).
func BenchmarkE9_SoftwareRA(b *testing.B) {
	cfg := experiments.E9Config{
		Overheads:  []int{40},
		Jitters:    []sim.Duration{sim.Millisecond, 50 * sim.Millisecond},
		Iterations: 200_000,
		Trials:     5,
	}
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		rows := experiments.E9SoftwareRA(cfg)
		if len(rows) != 2 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkE10_DoS regenerates the §3.3 DoS comparison (short horizon).
func BenchmarkE10_DoS(b *testing.B) {
	cfg := experiments.E10Config{
		FloodPeriods: []sim.Duration{500 * sim.Millisecond},
		Horizon:      15 * sim.Second,
	}
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		rows := experiments.E10DoS(cfg)
		if len(rows) != 2 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkAblation_SMARMBlocks sweeps SMARM interrupt granularity.
func BenchmarkAblation_SMARMBlocks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationSMARMBlocks([]int{16, 64}, 20, uint64(i))
		if len(rows) != 2 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkAblation_LockGranularity sweeps sliding-lock block sizes.
func BenchmarkAblation_LockGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationLockGranularity([]int{16, 64}, uint64(i))
		if len(rows) == 0 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkAblation_ErasmusScheduling compares fixed vs context-aware
// self-measurement scheduling.
func BenchmarkAblation_ErasmusScheduling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationErasmusScheduling(uint64(i))
		if len(rows) != 2 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkAblation_DeviceClass compares device-class profiles.
func BenchmarkAblation_DeviceClass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationDeviceClass(sim.Second)
		if len(rows) != 2 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkExt_Swarm scales collective attestation.
func BenchmarkExt_Swarm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationSwarmScale([]int{4, 16}, uint64(i))
		if rows[1].Verified != 16 {
			b.Fatal("swarm verification failed")
		}
	}
}

// BenchmarkEngine_Measurement is a microbenchmark of the simulator
// itself: one full 256-block measurement session per iteration.
func BenchmarkEngine_Measurement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewScenario(ScenarioConfig{MemSize: 64 << 10, BlockSize: 256, Seed: uint64(i)})
		if res := s.AttestOnce(); !res.OK {
			b.Fatal("clean attestation failed")
		}
	}
}

// Benchmark_MeasurementPath compares the incremental measurement engine
// (dirty-block digest caching, the default) against the full streaming
// path on the two heaviest Monte Carlo loops. Results are bit-identical
// either way (see the path-equivalence tests); only host CPU differs.
func Benchmark_MeasurementPath(b *testing.B) {
	modes := []struct {
		name      string
		streaming bool
	}{{"incremental", false}, {"streaming", true}}
	for _, m := range modes {
		b.Run("Table1/"+m.name, func(b *testing.B) {
			core.SetStreamingDefault(m.streaming)
			defer core.SetStreamingDefault(false)
			cfg := experiments.Table1Config{Trials: 3, SMARMRounds: 5}
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i)
				if rows := experiments.Table1(cfg); len(rows) < 10 {
					b.Fatal("rows")
				}
			}
		})
		b.Run("E6/"+m.name, func(b *testing.B) {
			core.SetStreamingDefault(m.streaming)
			defer core.SetStreamingDefault(false)
			cfg := experiments.E6Config{BlockCounts: []int{32}, Rounds: []int{1, 3}, Trials: 25}
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i)
				if rows := experiments.E6SMARM(cfg); len(rows) != 2 {
					b.Fatal("rows")
				}
			}
		})
	}
}

// BenchmarkParallelTrials compares serial (Parallelism=1) against the
// worker-pool default (Parallelism=0 → GOMAXPROCS) on the two heaviest
// Monte Carlo loops. Results are bit-identical either way (see the
// determinism tests); this measures wall clock only. On a single-core
// host the pair should be ~equal; the speedup shows up with cores.
func BenchmarkParallelTrials(b *testing.B) {
	modes := []struct {
		name string
		par  int
	}{{"serial", 1}, {"parallel", 0}}
	for _, m := range modes {
		b.Run("E6/"+m.name, func(b *testing.B) {
			cfg := experiments.E6Config{BlockCounts: []int{32}, Rounds: []int{1, 3},
				Trials: 25, Parallelism: m.par}
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i)
				if rows := experiments.E6SMARM(cfg); len(rows) != 2 {
					b.Fatal("rows")
				}
			}
		})
		b.Run("Table1/"+m.name, func(b *testing.B) {
			cfg := experiments.Table1Config{Trials: 3, SMARMRounds: 5, Parallelism: m.par}
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i)
				if rows := experiments.Table1(cfg); len(rows) < 10 {
					b.Fatal("rows")
				}
			}
		})
	}
}

// Benchmark_DeriveOrder isolates the traversal-order hot path: a fresh
// slice + fresh HMAC per call (the old DeriveOrderRegion behavior)
// against the reusable-buffer + pooled-PRF AppendOrderRegion the verify
// loops now use.
func Benchmark_DeriveOrder(b *testing.B) {
	key := []byte("bench-perm-key-0123456789abcdef")
	nonce := []byte("bench-nonce")
	const blocks = 256
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if o := core.DeriveOrderRegion(key, nonce, i, 0, blocks, true); len(o) != blocks {
				b.Fatal("order")
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		b.ReportAllocs()
		var order []int
		for i := 0; i < b.N; i++ {
			order = core.AppendOrderRegion(order[:0], key, nonce, i, 0, blocks, true)
			if len(order) != blocks {
				b.Fatal("order")
			}
		}
	})
}

// Benchmark_TaggerReuse isolates the per-measurement MAC state: the
// pooled acquire/release cycle the engine runs once per round.
func Benchmark_TaggerReuse(b *testing.B) {
	scheme := suite.Scheme{Hash: suite.SHA256, Key: []byte("bench-attestation-key")}
	block := make([]byte, 4096)
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tg, err := scheme.AcquireTagger()
			if err != nil {
				b.Fatal(err)
			}
			tg.Write(block)
			if _, err := tg.Tag(); err != nil {
				b.Fatal(err)
			}
			scheme.ReleaseTagger(tg)
		}
	})
}

// BenchmarkSwarm_Round measures fleet attestation on the sharded
// engine: one iteration provisions a fleet and runs a collection round
// (like every benchmark in this file, an iteration is the full
// experiment): copy-on-write views of one golden image (provisioning
// copies nothing), one shared digest cache, and batched verification
// (one expected tag per round for the whole clean fleet). The arms it
// replaced — private full-image copies, per-report verification — live
// on as the oracles of TestShardedCOWMatchesFullCopy and
// TestCollectorBatchedMatchesUnbatched. ns/dev-round and B/dev-round
// divide by devices × rounds.
func BenchmarkSwarm_Round(b *testing.B) {
	const rounds = 1
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			nonce := make([]byte, 0, 32)
			b.ReportAllocs()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			bytesBefore := ms.TotalAlloc
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := swarm.NewSharded(swarm.ShardedConfig{
					EngineConfig: swarm.EngineConfig{Seed: uint64(i)},
					Devices:      n, MemSize: 16 << 10, BlockSize: 256,
				})
				if err != nil {
					b.Fatal(err)
				}
				for r := 0; r < rounds; r++ {
					nonce = fmt.Appendf(nonce[:0], "bench-%d-%d", i, r)
					res, err := s.Round(nonce)
					if err != nil {
						b.Fatal(err)
					}
					if !res.Healthy() {
						b.Fatal("clean fleet judged unhealthy")
					}
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			perDev := float64(b.N * n * rounds)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perDev, "ns/dev-round")
			b.ReportMetric(float64(ms.TotalAlloc-bytesBefore)/perDev, "B/dev-round")
		})
	}
}

// BenchmarkSwarm_Provision measures fleet construction: N
// copy-on-write views of one shared golden image. The bytes/op figure
// is the resident-memory story behind TestSharded10K.
func BenchmarkSwarm_Provision(b *testing.B) {
	const n = 100
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := swarm.NewSharded(swarm.ShardedConfig{
			EngineConfig: swarm.EngineConfig{Seed: uint64(i)},
			Devices:      n, MemSize: 16 << 10, BlockSize: 256,
		})
		if err != nil {
			b.Fatal(err)
		}
		if s.ResidentBytes() != 16<<10 {
			b.Fatal("a clean fleet holds more than its golden image")
		}
	}
}

func byteLabel(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// BenchmarkSched_SelfFleet runs the E12 fleet end to end — devices
// self-measuring on one-kernel-per-shard schedulers — at two sizes: the
// bench module's sim_paper fleet (125 devices, 1 h: 250 standing timers,
// at the kernel's wheel threshold, where heap and wheel read level) and
// the paper-scale one (10k devices, where the wheel is ahead). The ev/sec
// metric is the end-to-end counterpart of internal/sim's
// BenchmarkSched_FleetTimers: here hashing and verification dilute the
// queue's share of the profile. -short trims the large fleet (CI
// bench-smoke runs -short at -benchtime=1x).
func BenchmarkSched_SelfFleet(b *testing.B) {
	big, horizon := 10_000, 2*sim.Hour
	if testing.Short() {
		big, horizon = 1000, sim.Hour
	}
	for _, size := range []struct {
		devices int
		horizon sim.Duration
	}{{125, sim.Hour}, {big, horizon}} {
		b.Run(fmt.Sprintf("N%d", size.devices), func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				res, err := swarm.RunSelfFleet(swarm.SelfFleetConfig{
					EngineConfig: swarm.EngineConfig{Seed: 42},
					Devices:      size.devices, Mode: swarm.SelfErasmus,
					TM: 2 * sim.Minute, TC: 30 * sim.Minute, Horizon: size.horizon,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Measurements == 0 {
					b.Fatal("fleet did not measure")
				}
				events += res.Events
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "ev/sec")
		})
	}
}
