package main

// The benchmark's vocabulary: workloads, end-to-end metrics and
// per-layer metrics. BENCHMARK.json at the repository root declares the
// same names (TestManifestMatchesTables pins the two together); this
// file adds what the manifest has no room for — what each end-to-end
// metric means on each workload, and which workloads measure each
// per-layer metric (it reads 0 on the others, where the layer does no
// work).

const (
	wWireErasmus = "wire_erasmus"
	wWireSmart   = "wire_smart"
	wInprocMixed = "inproc_mixed"
	wSimPaper    = "sim_paper"
)

type workloadDef struct {
	name string
	why  string
}

var workloads = []workloadDef{
	{wWireErasmus, "ERASMUS collection bundles offered to a child rattd at a fixed rate: every report hits the shared tag cache, so transport and checkpointing do the work and the verifier almost none"},
	{wWireSmart, "open loop of SMART hello/challenge/report/verdict exchanges at a fixed rate into a child rattd: every nonce is unique, so every report misses the tag cache and pays the full MAC"},
	{wInprocMixed, "Server.Ingest over transport.Local with collections, SeED reports and 1% hostile bundles: bypasses the socket transport entirely and exercises the reject and enrolment paths"},
	{wSimPaper, "the paper's simulator on a fixed script (Table 1, E6 escape grid, E12 self-measuring fleets): sim, device, mem, swarm and the sim-stack verifier do all the work, transport and rattd none"},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only
	// on lists the workloads that measure the metric (per-layer only;
	// nil means every workload).
	on []string
}

// End-to-end metrics. Every workload reports every one of them; the
// meaning per workload is:
//
//	ops_per_s  wire_erasmus: reports verified per wall second at the offered 20 000 bundles/s
//	           wire_smart: verdicts per wall second at the offered 2 000 exchanges/s
//	           inproc_mixed: accepted reports per wall second, saturated
//	           sim_paper: E12 kernel events per host second, saturated
//	op_p50_ms  wire_erasmus: instant the collection bundle was due -> verdict
//	           wire_smart: instant the hello was due -> verdict
//	           inproc_mixed: one Server.Ingest call
//	           sim_paper: one E6 Monte Carlo cell (25 trials)
//	rss_mib    mean resident set over the window, sampled every 100 ms:
//	           the child rattd's on wire_*, this process's otherwise
//	setup_s    everything between start and the first measured op, compile excluded
//
// The host is shared and its neighbours slow it by half again for
// seconds at a time, so the saturated rates and all four latencies are
// quiet quantiles over the short slices of a run (stats.go), and the
// wire workloads are driven at a fixed offered rate: what rattd can
// verify at most, closed loop, moved between 190 000 and 380 000
// reports/s within one hour of identical runs, and no statistic of a
// run brought that inside a bound. It is a per-layer metric
// (erasmus.capacity_per_s), as are the latency tail, the CPU time per
// op and peak RSS, none of which repeated within a tenth either.
var endToEnd = []metricDef{
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "rss_mib", unit: "MiB", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

var (
	onWire    = []string{wWireErasmus, wWireSmart}
	onErasmus = []string{wWireErasmus}
	onSmart   = []string{wWireSmart}
	onInproc  = []string{wInprocMixed}
	onSim     = []string{wSimPaper}
	onDaemon  = []string{wWireErasmus, wWireSmart, wInprocMixed}
	onOwn     = []string{wInprocMixed, wSimPaper}
)

// Per-layer metrics, named <module>.<metric>. What each should move is
// tabulated in README.md.
var perLayer = []metricDef{
	// demoted from end to end: the latency tail (whole-window p99, and
	// the highest percentile with ten samples beyond it), the resident
	// high-water mark, CPU time per op (the child's on wire_*, this
	// process's otherwise), the whole-window rate of the saturated
	// workloads with the host's disturbances left in, and what a child
	// rattd verifies at most, closed loop with 64 bundles in flight
	{name: "op.p99_ms", unit: "ms", better: "lower"},
	{name: "op.top_ms", unit: "ms", better: "lower"},
	{name: "op.peak_rss_mib", unit: "MiB", better: "lower"},
	{name: "op.cpu_us", unit: "us", better: "lower"},
	{name: "op.mean_per_s", unit: "1/s", better: "higher", on: onOwn},
	{name: "erasmus.capacity_per_s", unit: "1/s", better: "higher", on: onErasmus},
	{name: "erasmus.capacity_rtt_p50_ms", unit: "ms", better: "lower", on: onErasmus},
	{name: "erasmus.capacity_cpu_us", unit: "us", better: "lower", on: onErasmus},

	// transport
	{name: "transport.encode_ns_per_frame", unit: "ns", better: "lower", on: onWire},
	{name: "transport.decode_ns_per_frame", unit: "ns", better: "lower", on: onWire},
	{name: "transport.decode_allocs_per_frame", unit: "count", better: "lower", on: onWire},
	{name: "transport.batch_encode_ns_per_sub", unit: "ns", better: "lower", on: onWire},
	{name: "transport.batch_decode_ns_per_sub", unit: "ns", better: "lower", on: onWire},
	{name: "transport.local_send_ns", unit: "ns", better: "lower", on: onInproc},
	{name: "transport.net_rtt_p50_us", unit: "us", better: "lower", on: onWire},
	{name: "transport.net_oneway_ns_per_msg", unit: "ns", better: "lower", on: onWire},
	{name: "transport.client_resent", unit: "count", better: "lower", on: onWire},
	{name: "transport.client_expired", unit: "count", better: "lower", on: onWire},
	{name: "transport.client_coalesced_share", unit: "ratio", better: "higher", on: onWire},
	{name: "transport.daemon_qdrop", unit: "count", better: "lower", on: onWire},
	{name: "transport.daemon_dup", unit: "count", better: "lower", on: onWire},
	{name: "transport.daemon_malformed", unit: "count", better: "lower", on: onWire},
	{name: "transport.daemon_batches_rx", unit: "count", better: "higher", on: onWire},
	{name: "transport.daemon_batches_tx", unit: "count", better: "higher", on: onWire},
	{name: "transport.datagrams_per_report", unit: "count", better: "lower", on: onWire},
	{name: "gen.late_p99_ms", unit: "ms", better: "lower", on: onWire},

	// rattd
	{name: "rattd.ingest_collection_ns_per_report", unit: "ns", better: "lower", on: onDaemon},
	{name: "rattd.ingest_collection_h1_ns_per_report", unit: "ns", better: "lower", on: onDaemon},
	{name: "rattd.ingest_seed_ns_per_report", unit: "ns", better: "lower", on: onDaemon},
	{name: "rattd.ingest_smart_us_per_exchange", unit: "us", better: "lower", on: onDaemon},
	{name: "rattd.ingest_replay_ns_per_report", unit: "ns", better: "lower", on: onDaemon},
	{name: "rattd.ingest_forged_ns_per_report", unit: "ns", better: "lower", on: onDaemon},
	{name: "rattd.ingest_spoofed_ns_per_report", unit: "ns", better: "lower", on: onDaemon},
	{name: "rattd.ingest_named_image_ns_per_report", unit: "ns", better: "lower", on: onDaemon},
	{name: "rattd.ingest_allocs_per_report", unit: "count", better: "lower", on: onDaemon},
	{name: "rattd.ingest_alloc_b_per_report", unit: "B", better: "lower", on: onDaemon},
	{name: "rattd.window_ns_per_op", unit: "ns", better: "lower", on: onDaemon},
	{name: "rattd.shardfor_ns", unit: "ns", better: "lower", on: onDaemon},
	{name: "rattd.prover_respond_us", unit: "us", better: "lower", on: onSmart},
	{name: "rattd.enrolled_per_legit_prover", unit: "ratio", better: "lower", on: onDaemon},
	{name: "rattd.checkpoint_full_mb_per_s", unit: "MB/s", better: "higher", on: onErasmus},
	{name: "rattd.checkpoint_delta_ms", unit: "ms", better: "lower", on: onErasmus},
	{name: "rattd.checkpoint_bytes_per_prover", unit: "B", better: "lower", on: onErasmus},
	{name: "rattd.restore_chain_ms", unit: "ms", better: "lower", on: onErasmus},
	{name: "rattd.ckpt_fulls", unit: "count", better: "lower", on: onErasmus},
	{name: "rattd.ckpt_deltas", unit: "count", better: "higher", on: onErasmus},
	{name: "rattd.ckpt_compactions", unit: "count", better: "lower", on: onErasmus},
	{name: "rattd.ckpt_last_write_ms", unit: "ms", better: "lower", on: onErasmus},
	{name: "rattd.restore_s", unit: "s", better: "lower", on: onErasmus},
	{name: "rattd.state_bytes_per_prover", unit: "B", better: "lower", on: onInproc},
	{name: "rattd.accepted", unit: "count", better: "higher", on: onDaemon},
	{name: "rattd.rejected", unit: "count", better: "lower", on: onDaemon},
	{name: "rattd.replays", unit: "count", better: "lower", on: onDaemon},
	{name: "rattd.challenges", unit: "count", better: "higher", on: onDaemon},
	{name: "rattd.enrolled", unit: "count", better: "lower", on: onDaemon},

	// verifier
	{name: "verifier.batch_hit_ns", unit: "ns", better: "lower", on: onDaemon},
	{name: "verifier.batch_miss_us_4k", unit: "us", better: "lower", on: onDaemon},
	{name: "verifier.batch_miss_us_64k", unit: "us", better: "lower", on: onDaemon},
	{name: "verifier.imageset_verify_ns", unit: "ns", better: "lower", on: onDaemon},
	{name: "verifier.batch_hit_ratio", unit: "ratio", better: "higher", on: onDaemon},
	{name: "verifier.sim_checktag_ns", unit: "ns", better: "lower", on: onSim},

	// core / suite (every workload hashes)
	{name: "core.prf_ns", unit: "ns", better: "lower"},
	{name: "core.expected_stream_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "core.order_ns_per_block", unit: "ns", better: "lower"},
	{name: "core.measurement_ns_per_block", unit: "ns", better: "lower", on: onSim},
	{name: "suite.mac_ns", unit: "ns", better: "lower"},
	{name: "suite.hash_mb_per_s.sha256", unit: "MB/s", better: "higher"},
	{name: "suite.hash_mb_per_s.blake2b", unit: "MB/s", better: "higher"},
	{name: "suite.hash_mb_per_s.blake2s", unit: "MB/s", better: "higher"},

	// simulator stack
	{name: "sim.schedule_ns_per_event", unit: "ns", better: "lower", on: onSim},
	{name: "sim.timer_arm_ns", unit: "ns", better: "lower", on: onSim},
	{name: "mem.cow_write_ns", unit: "ns", better: "lower", on: onSim},
	{name: "mem.snapshot_mb_per_s", unit: "MB/s", better: "higher", on: onSim},
	{name: "inccache.digest_hit_ns", unit: "ns", better: "lower", on: onSim},
	{name: "inccache.remeasure_ns_per_dirty_block", unit: "ns", better: "lower", on: onSim},
	{name: "swarm.selffleet_ns_per_event", unit: "ns", better: "lower", on: onSim},
	{name: "swarm.round_ns_per_device", unit: "ns", better: "lower", on: onSim},
	{name: "parallel.speedup_2", unit: "ratio", better: "higher", on: onSim},
	{name: "experiments.table1_s", unit: "s", better: "lower", on: onSim},
	{name: "experiments.e6_s", unit: "s", better: "lower", on: onSim},
	{name: "experiments.e12_s", unit: "s", better: "lower", on: onSim},
	{name: "experiments.trials_per_s", unit: "1/s", better: "higher", on: onSim},

	// ladder: one report stream through four rungs
	{name: "ladder.codec_ns_per_report", unit: "ns", better: "lower", on: onErasmus},
	{name: "ladder.ingest_ns_per_report", unit: "ns", better: "lower", on: onErasmus},
	{name: "ladder.net_inproc_ns_per_report", unit: "ns", better: "lower", on: onErasmus},
	{name: "ladder.net_xproc_ns_per_report", unit: "ns", better: "lower", on: onErasmus},
	{name: "ladder.transport_share", unit: "ratio", better: "lower", on: onErasmus},
	{name: "ladder.unattributed_share", unit: "ratio", better: "lower", on: onErasmus},

	// traced run: span self times (medians) and the cost of tracing
	{name: "trace.overhead_share", unit: "ratio", better: "lower"},
	{name: "span.queue_us", unit: "us", better: "lower", on: onErasmus},
	{name: "span.send_us", unit: "us", better: "lower", on: onErasmus},
	{name: "span.wait_us", unit: "us", better: "lower", on: onErasmus},
	{name: "span.handler_us", unit: "us", better: "lower", on: onErasmus},
	{name: "span.hello_send_us", unit: "us", better: "lower", on: onSmart},
	{name: "span.challenge_wait_us", unit: "us", better: "lower", on: onSmart},
	{name: "span.prover_respond_us", unit: "us", better: "lower", on: onSmart},
	{name: "span.report_send_us", unit: "us", better: "lower", on: onSmart},
	{name: "span.verdict_wait_us", unit: "us", better: "lower", on: onSmart},
	{name: "span.ingest_collection_us", unit: "us", better: "lower", on: onInproc},
	{name: "span.ingest_seed_us", unit: "us", better: "lower", on: onInproc},
	{name: "span.ingest_hostile_us", unit: "us", better: "lower", on: onInproc},
	{name: "span.verdict_cb_us", unit: "us", better: "lower", on: onInproc},

	// wire_smart side steps below and above the fixed rate
	{name: "smart.rtt_p50_ms_at_500", unit: "ms", better: "lower", on: onSmart},
	{name: "smart.rtt_p99_ms_at_500", unit: "ms", better: "lower", on: onSmart},
	{name: "smart.rtt_p50_ms_at_4000", unit: "ms", better: "lower", on: onSmart},
	{name: "smart.rtt_p99_ms_at_4000", unit: "ms", better: "lower", on: onSmart},
}

// unmeasured names the claims this host cannot measure. They are
// printed as such in every report instead of riding along as a caveat
// under a pass.
var unmeasured = []string{"concurrent_scaling", "scaling_1_to_8"}

func (m metricDef) measuredOn(workload string) bool {
	if m.on == nil {
		return true
	}
	for _, w := range m.on {
		if w == workload {
			return true
		}
	}
	return false
}

// value is one reported figure: the number, its unit, and how many
// samples stand behind it (0 when the figure is a plain count or
// ratio).
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// metricSet collects a run's figures by name.
type metricSet map[string]value

func (s metricSet) put(name string, v float64, n int) {
	s[name] = value{Value: v, N: n}
}

func (s metricSet) note(name, note string) {
	v := s[name]
	v.Note = note
	s[name] = v
}
