// Command rattd is the networked verifier daemon: it serves SMART
// challenge/response, ERASMUS collection ingestion, and SeED report
// ingestion over UDP, verifying provers against a deterministic golden
// image through the amortized batch fast path.
//
//	rattd -addr 127.0.0.1:9779 -seed 42 -mem 65536 -block 1024
//
// With -shards N it serves a horizontally sharded tier instead: N
// shared-nothing verifier instances on consecutive ports (base port
// +0..+N-1), coordinated only through epoch leases of the challenge
// nonce-counter space. Clients route provers to shards with the same
// rendezvous hash (rattd.ShardFor); `rattsim -mode rattping -shards N`
// does this automatically.
//
//	rattd -addr 127.0.0.1:9779 -shards 8 -checkpoint /var/lib/rattd/state
//
// -checkpoint makes every shard persist its fleet state (enrollment,
// freshness counters, epoch lease) to <path>.<shard> on exit and, in
// the background, every -checkpoint-interval (default 10s; it does not
// follow -stats, so `-stats 0 -checkpoint-interval 1s` prints nothing
// and persists every second); -restore loads those files on startup so
// a restarted tier keeps verifying enrolled provers without
// re-enrollment and still rejects replays. -pprof exposes
// net/http/pprof for live profiling of the shard hot paths.
//
// Provers agree on the image by sharing (seed, mem, block); drive a
// fleet against it with `rattsim -mode rattping -addr ...`.
//
// A heterogeneous fleet registers one golden image per device class
// with repeated -image flags (the first is the default, served to
// provers that never name one):
//
//	rattd -addr 127.0.0.1:9779 -image sensor=sensor.img -image gateway=gateway.img
//
// Reports name their image on the wire ("name" or "name@vN"); rotated
// image versions keep verifying for -grace-epochs rotation epochs.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"saferatt/internal/rattd"
	"saferatt/internal/transport"
	"saferatt/internal/verifier"
)

// imageFlags collects repeated -image name=path flags in order.
type imageFlags []string

func (f *imageFlags) String() string { return strings.Join(*f, ",") }

func (f *imageFlags) Set(v string) error {
	*f = append(*f, v)
	return nil
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:9779", "UDP listen address (shard i listens on port+i)")
		shards   = flag.Int("shards", 1, "verifier shards, one socket each (provers route by rendezvous hash)")
		seed     = flag.Uint64("seed", 42, "golden image seed (provers must match)")
		memSize  = flag.Int("mem", 64<<10, "attested memory bytes")
		block    = flag.Int("block", 1<<10, "block size bytes")
		shuffled = flag.Bool("shuffled", false, "expect permuted traversal orders (SMARM-style)")
		epochs   = flag.Int("keep-epochs", 64, "nonce epochs of expected tags to cache")
		grace    = flag.Uint64("grace-epochs", 1, "rotation epochs a rotated-out image version keeps verifying")
		stripes  = flag.Int("stripes", 0, "lock stripes for per-prover state per shard (0 = 4×GOMAXPROCS)")
		drop     = flag.Float64("drop", 0, "injected datagram loss rate (testing)")
		verbose  = flag.Bool("v", false, "log every verification decision")
		statsSec = flag.Int("stats", 30, "stats print interval in seconds (0 = only on exit)")

		checkpoint   = flag.String("checkpoint", "", "persist shard state to <path>.<shard> (base + delta chain) in the background")
		ckptInterval = flag.Duration("checkpoint-interval", 10*time.Second, "background checkpoint interval (0 = only on exit)")
		ckptDeltas   = flag.Int("checkpoint-max-deltas", 16, "delta files per chain before compaction into a fresh base")
		restore      = flag.Bool("restore", false, "restore shard state from -checkpoint files on startup")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")

		recvLoops  = flag.Int("recv-loops", 0, "socket receive goroutines per shard (0 = default)")
		recvQueues = flag.Int("recv-queues", 0, "receive dispatch workers per shard (0 = GOMAXPROCS, min 4; each drives the striped verify path concurrently)")
		queueCap   = flag.Int("queue-cap", 0, "per-shard receive queue capacity (0 = default)")
		batchBytes = flag.Int("batch-bytes", 0, "batch datagram size budget (0 = default)")
		maxBatch   = flag.Int("max-batch", 0, "messages per batch datagram cap (0 = default)")
	)
	var images imageFlags
	flag.Var(&images, "image", "register a golden image as name=path (repeatable; first is the default; overrides -seed/-mem)")
	flag.Parse()
	if *shards < 1 {
		log.Fatalf("rattd: -shards %d (need >= 1)", *shards)
	}
	if *restore && *checkpoint == "" {
		log.Fatal("rattd: -restore needs -checkpoint <path>")
	}

	if *pprofAddr != "" {
		go func() {
			log.Printf("rattd: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("rattd: pprof: %v", err)
			}
		}()
	}

	if *recvQueues == 0 {
		// Dispatch workers are what actually run the striped verify
		// path, so default their count to the cores available; the
		// floor keeps source-address sharding effective on small hosts.
		*recvQueues = runtime.GOMAXPROCS(0)
		if *recvQueues < 4 {
			*recvQueues = 4
		}
	}

	addrs, err := rattd.TierAddrs(*addr, *shards)
	if err != nil {
		log.Fatalf("rattd: %v", err)
	}
	var nets []*transport.Net
	var trs []transport.Transport
	for _, a := range addrs {
		tr, err := transport.Listen(transport.NetConfig{
			Addr: a, DropRate: *drop,
			RecvLoops: *recvLoops, RecvQueues: *recvQueues, QueueCap: *queueCap,
			BatchBytes: *batchBytes, MaxBatch: *maxBatch,
		})
		if err != nil {
			log.Fatalf("rattd: %v", err)
		}
		defer tr.Close()
		nets = append(nets, tr)
		trs = append(trs, tr)
	}

	cfg := rattd.Config{
		BlockSize:  *block,
		Shuffled:   *shuffled,
		KeepEpochs: *epochs,
		Stripes:    *stripes,
	}
	if len(images) > 0 {
		set := verifier.NewImageSet(verifier.ImageSetConfig{Grace: *grace, KeepEpochs: *epochs})
		for _, spec := range images {
			name, path, ok := strings.Cut(spec, "=")
			if !ok || name == "" || path == "" {
				log.Fatalf("rattd: -image %q (want name=path)", spec)
			}
			ref, err := os.ReadFile(path)
			if err != nil {
				log.Fatalf("rattd: -image %s: %v", name, err)
			}
			if len(ref) == 0 || len(ref)%*block != 0 {
				log.Fatalf("rattd: -image %s: %d bytes is not a positive multiple of block size %d",
					name, len(ref), *block)
			}
			if _, err := set.Add(name, verifier.ImageOf(ref, *block)); err != nil {
				log.Fatalf("rattd: -image %s: %v", name, err)
			}
		}
		cfg.Images = set
	} else {
		cfg.Ref = rattd.GoldenImage(*seed, *memSize, *block)
	}
	if *verbose {
		cfg.Logf = log.Printf
	}
	tier, err := rattd.ServeTier(trs, rattd.TierConfig{Base: cfg})
	if err != nil {
		log.Fatalf("rattd: %v", err)
	}
	priorChains := make([]uint64, *shards)
	if *restore {
		cps, err := loadCheckpoints(*checkpoint, *shards)
		if err != nil {
			log.Fatalf("rattd: %v", err)
		}
		for i, cp := range cps {
			if cp != nil {
				priorChains[i] = cp.ChainID
			}
		}
		if err := tier.Restore(cps); err != nil {
			log.Fatalf("rattd: %v", err)
		}
	}

	// Persistence runs in the background, one checkpointer per shard:
	// snapshots stream stripe-at-a-time off the dirty tracking, so the
	// verify path never stalls for a write, and a clean shard skips
	// the write entirely.
	var ckpts []*rattd.Checkpointer
	if *checkpoint != "" {
		for i := 0; i < *shards; i++ {
			c := rattd.NewCheckpointer(tier.Shard(i), rattd.CheckpointerConfig{
				Path:         checkpointPath(*checkpoint, i),
				Interval:     *ckptInterval,
				MaxDeltas:    *ckptDeltas,
				PriorChainID: priorChains[i],
				Logf:         log.Printf,
			})
			c.Start()
			ckpts = append(ckpts, c)
		}
	}
	for i, tr := range nets {
		if cfg.Images != nil {
			log.Printf("rattd: shard %d/%d serving on %s as %q (images %s, default %s, %d-byte blocks)",
				i, *shards, tr.Addr(), tier.Shard(i).Name(),
				strings.Join(cfg.Images.Names(), ","), cfg.Images.Default(), *block)
		} else {
			log.Printf("rattd: shard %d/%d serving on %s as %q (image seed=%d %d bytes in %d-byte blocks)",
				i, *shards, tr.Addr(), tier.Shard(i).Name(), *seed, *memSize, *block)
		}
	}

	printStats := func() {
		c := tier.Counts()
		var n transport.NetStats
		for _, tr := range nets {
			s := tr.Stats()
			n.Received += s.Received
			n.Dups += s.Dups
			n.Malformed += s.Malformed
			n.QueueDrops += s.QueueDrops
			n.BatchesRecv += s.BatchesRecv
			n.BatchesSent += s.BatchesSent
			n.Coalesced += s.Coalesced
		}
		log.Printf("rattd: challenges=%d accepted=%d rejected=%d replays=%d enrolled=%d balance=%.3f | net rx=%d dup=%d malformed=%d qdrop=%d batches rx=%d tx=%d coalesced=%d",
			c.Challenges, c.Accepted, c.Rejected, c.Replays, enrolled(tier), tier.Balance(),
			n.Received, n.Dups, n.Malformed, n.QueueDrops, n.BatchesRecv, n.BatchesSent, n.Coalesced)
		if len(ckpts) > 0 {
			var cs rattd.CheckpointerStats
			var lastBytes, lastDirty int64
			var lastWrote time.Duration
			for _, c := range ckpts {
				s := c.Stats()
				cs.Fulls += s.Fulls
				cs.Deltas += s.Deltas
				cs.Compactions += s.Compactions
				cs.Skips += s.Skips
				cs.Errors += s.Errors
				lastBytes += s.LastBytes
				lastDirty += s.LastDirty
				if s.LastWrote > lastWrote {
					lastWrote = s.LastWrote
				}
			}
			log.Printf("rattd: ckpt full=%d delta=%d compact=%d skip=%d err=%d | last write %v %dB dirty=%d pending-dirty=%d",
				cs.Fulls, cs.Deltas, cs.Compactions, cs.Skips, cs.Errors,
				lastWrote.Round(time.Microsecond), lastBytes, lastDirty, dirtyCount(tier))
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if *statsSec > 0 {
		tick := time.NewTicker(time.Duration(*statsSec) * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				printStats()
			case <-sig:
				goto done
			}
		}
	} else {
		<-sig
	}
done:
	log.Printf("rattd: draining")
	tier.Close()
	for _, tr := range nets {
		tr.Close()
	}
	for i, c := range ckpts {
		if err := c.Close(); err != nil {
			log.Printf("rattd: final checkpoint shard %d: %v", i, err)
		}
	}
	printStats()
	fmt.Println("rattd: bye")
}

func checkpointPath(base string, shard int) string {
	return base + "." + strconv.Itoa(shard)
}

// loadCheckpoints reads per-shard checkpoint chains (base + deltas);
// a missing base cold-starts that shard, a corrupt base is a hard
// error, and stale or torn deltas degrade to the longest valid
// prefix of the chain.
func loadCheckpoints(base string, shards int) ([]*rattd.Checkpoint, error) {
	cps := make([]*rattd.Checkpoint, shards)
	for i := range cps {
		path := checkpointPath(base, i)
		cp, chain, err := rattd.LoadChain(path)
		if os.IsNotExist(err) {
			log.Printf("rattd: no checkpoint for shard %d (%s), cold start", i, path)
			continue
		}
		if err != nil {
			return nil, err
		}
		cps[i] = cp
		note := ""
		if chain.Truncated {
			note = ", torn tail salvaged"
		}
		if chain.Dropped > 0 {
			note += fmt.Sprintf(", %d stale deltas dropped", chain.Dropped)
		}
		log.Printf("rattd: shard %d restored from %s +%d deltas (%d erasmus / %d seed provers, lease [%d,%d)%s)",
			i, path, chain.Applied, len(cp.Erasmus), len(cp.Seed), cp.Lease.Lo, cp.Lease.Hi, note)
	}
	return cps, nil
}

// dirtyCount sums not-yet-persisted provers across shards.
func dirtyCount(t *rattd.Tier) int64 {
	var n int64
	for i := 0; i < t.Len(); i++ {
		n += t.Shard(i).DirtyCount()
	}
	return n
}

// enrolled sums distinct enrolled provers across shards (shards are
// disjoint by routing, so the sum is exact).
func enrolled(t *rattd.Tier) int {
	n := 0
	for i := 0; i < t.Len(); i++ {
		n += t.Shard(i).Enrolled()
	}
	return n
}
