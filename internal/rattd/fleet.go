package rattd

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"saferatt/internal/core"
	"saferatt/internal/transport"
)

// FleetConfig drives RunFleet: a fleet of real-socket provers
// attesting against a rattd daemon ("rattping") or a sharded tier.
type FleetConfig struct {
	// Addr is the daemon's UDP address (single-shard form).
	Addr string
	// Addrs are the shard addresses of a rattd tier, indexed by shard.
	// When len(Addrs) > 1 each prover routes to the shard ShardFor
	// picks for its name — the same pure hash the tier uses — over the
	// one shared client socket, and Addr is ignored (shard i answers as
	// ShardName(i)). Empty or one-element Addrs degrades to the
	// single-daemon form.
	Addrs []string
	// Provers is the fleet size.
	Provers int
	// Concurrency caps how many provers run their protocol at once;
	// 0 means all of them (the historical behavior, fine to ~1k).
	// 100k-prover fleets need a bound so the retry machinery is not
	// fighting 100k goroutines' worth of in-flight datagrams.
	Concurrency int
	// Image/BlockSize mirror the daemon's default image.
	Image     []byte
	BlockSize int
	// History is how many ERASMUS self-measurements each prover bundles
	// into its collection; defaults to 3, negative skips the collection
	// phase.
	History int
	// Net configures the client transport (drop injection, retry
	// pacing). Addr inside it is ignored; the fleet shares one socket.
	Net transport.NetConfig
	// Logf, if set, receives per-prover failures.
	Logf func(format string, args ...any)
}

// fleetTimeout bounds each protocol wait (challenge, verdict). On
// expiry the prover re-initiates once before failing.
const fleetTimeout = 15 * time.Second

// FleetResult summarizes one rattping run.
type FleetResult struct {
	Provers     int
	SMARTOK     int
	SMARTFail   int
	CollectOK   int
	CollectFail int
	// P50/P99/Max are round-trip latencies for the SMART phase
	// (hello sent -> verdict received).
	P50, P99, Max time.Duration
	// ShardProvers counts the provers routed to each shard (client-side
	// view of the tier's balance); nil for single-daemon runs.
	ShardProvers []int
	// Net is the client transport's datagram counters.
	Net transport.NetStats
}

// RunFleet runs cfg.Provers concurrent provers against a daemon over
// one shared client socket: each completes a SMART challenge/response
// round and then ships an ERASMUS collection, and the result reports
// verdict counts plus round-trip latency percentiles.
//
// RunFleet is a functional client — what `rattsim -mode rattping` and
// the loopback e2e tests drive a daemon with — and not a benchmark: it
// is closed-loop and, in those tests, shares the daemon's process, so
// its timings include the daemon's own load. Throughput and latency
// claims come from bench/, whose open-loop generator is a separate
// process.
func RunFleet(cfg FleetConfig) (*FleetResult, error) {
	if cfg.History == 0 {
		cfg.History = 3
	}
	if cfg.Provers <= 0 {
		return nil, fmt.Errorf("rattd: fleet of %d provers", cfg.Provers)
	}
	addrs := cfg.Addrs
	if len(addrs) == 0 {
		addrs = []string{cfg.Addr}
	}
	shards := len(addrs)
	netCfg := cfg.Net
	netCfg.Addr = "" // client side always takes an ephemeral port
	tr, err := transport.Dial(addrs[0], netCfg)
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	// Pin a static route per shard daemon so the first datagram to
	// each already has an address (the transport would also learn the
	// mapping passively from replies, but provers talk first).
	for i, addr := range addrs {
		if err := tr.AddRoute(tierShardName(i, shards), addr); err != nil {
			return nil, err
		}
	}

	res := &FleetResult{Provers: cfg.Provers}
	if shards > 1 {
		res.ShardProvers = make([]int, shards)
	}
	sem := make(chan struct{}, fleetConcurrency(cfg))
	var mu sync.Mutex
	var rtts []time.Duration
	var wg sync.WaitGroup
	for i := 0; i < cfg.Provers; i++ {
		name := fmt.Sprintf("prv%05d", i)
		prv, err := NewProver(name, DefaultKey, cfg.Image, cfg.BlockSize)
		if err != nil {
			return nil, err
		}
		shard := prv.ShardOf(shards)
		daemon := tierShardName(shard, shards)
		if shards > 1 {
			res.ShardProvers[shard]++
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			smartOK, rtt, collectOK := runProver(tr, cfg, prv, daemon)
			mu.Lock()
			defer mu.Unlock()
			if smartOK {
				res.SMARTOK++
				rtts = append(rtts, rtt)
			} else {
				res.SMARTFail++
			}
			if cfg.History > 0 {
				if collectOK {
					res.CollectOK++
				} else {
					res.CollectFail++
				}
			}
		}()
	}
	wg.Wait()
	tr.Drain(0)
	res.Net = tr.Stats()
	if len(rtts) > 0 {
		sort.Slice(rtts, func(a, b int) bool { return rtts[a] < rtts[b] })
		res.P50 = rtts[len(rtts)/2]
		res.P99 = rtts[len(rtts)*99/100]
		res.Max = rtts[len(rtts)-1]
	}
	return res, nil
}

// fleetConcurrency resolves the prover-concurrency cap.
func fleetConcurrency(cfg FleetConfig) int {
	if cfg.Concurrency > 0 && cfg.Concurrency < cfg.Provers {
		return cfg.Concurrency
	}
	return cfg.Provers
}

// runProver executes one prover's protocol against the named daemon
// (its assigned shard in a tier): SMART round then ERASMUS
// collection. Returns SMART success + its round trip, and collection
// success.
func runProver(tr *transport.Net, cfg FleetConfig, prv *Prover, daemon string) (bool, time.Duration, bool) {
	inbox := make(chan transport.Msg, 8)
	if err := tr.Bind(prv.Name, func(m transport.Msg) {
		select {
		case inbox <- m:
		default: // never block the receive goroutine
		}
	}); err != nil {
		return false, 0, false
	}
	defer tr.Unbind(prv.Name)

	logf := func(format string, args ...any) {
		if cfg.Logf != nil {
			cfg.Logf(prv.Name+": "+format, args...)
		}
	}
	await := func(kind transport.Kind) (transport.Msg, bool) {
		timer := time.NewTimer(fleetTimeout)
		defer timer.Stop()
		for {
			select {
			case m := <-inbox:
				if m.Kind == kind {
					return m, true
				}
				// A stale message from an earlier attempt; keep waiting.
			case <-timer.C:
				return transport.Msg{}, false
			}
		}
	}

	// SMART: hello -> challenge -> report -> verdict. The transport
	// retries datagrams; this level retries the whole exchange once if
	// a deadline still expires.
	start := time.Now()
	var smartOK bool
	for attempt := 0; attempt < 2 && !smartOK; attempt++ {
		if err := tr.Send(transport.Msg{From: prv.Name, To: daemon, Kind: transport.KindHello,
			Image: prv.ImageName}); err != nil {
			logf("hello: %v", err)
			break
		}
		ch, ok := await(transport.KindChallenge)
		if !ok {
			logf("challenge timed out (attempt %d)", attempt)
			continue
		}
		rep, err := prv.Respond(ch.Nonce)
		if err != nil {
			logf("measure: %v", err)
			break
		}
		if err := tr.Send(transport.Msg{From: prv.Name, To: daemon, Kind: transport.KindReport,
			Image: prv.ImageName, Reports: []*core.Report{rep}}); err != nil {
			logf("report: %v", err)
			break
		}
		v, ok := await(transport.KindVerdict)
		if !ok {
			logf("verdict timed out (attempt %d)", attempt)
			continue
		}
		if !v.OK {
			logf("rejected: %s", v.Reason)
			break
		}
		smartOK = true
	}
	rtt := time.Since(start)

	if cfg.History <= 0 {
		return smartOK, rtt, false
	}

	// ERASMUS: bundle a self-measurement history, ship it, await the
	// verdict. A re-initiated attempt measures FRESH counters — the
	// daemon has already consumed the previous bundle's counters, so
	// resending them would (correctly) read as a replay.
	var collectOK bool
	for attempt := 0; attempt < 2 && !collectOK; attempt++ {
		var history []*core.Report
		base := uint64(attempt * cfg.History)
		for ctr := base + 1; ctr <= base+uint64(cfg.History); ctr++ {
			r, err := prv.SelfMeasure(ctr)
			if err != nil {
				logf("self-measure: %v", err)
				return smartOK, rtt, false
			}
			history = append(history, r)
		}
		if err := tr.Send(transport.Msg{From: prv.Name, To: daemon, Kind: transport.KindCollection,
			Image: prv.ImageName, Reports: history}); err != nil {
			logf("collection: %v", err)
			break
		}
		v, ok := await(transport.KindVerdict)
		if !ok {
			logf("collection verdict timed out (attempt %d)", attempt)
			continue
		}
		collectOK = v.OK
		if !v.OK {
			logf("collection rejected: %s", v.Reason)
			break
		}
	}
	return smartOK, rtt, collectOK
}
