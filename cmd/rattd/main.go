// Command rattd is the networked verifier daemon: it serves SMART
// challenge/response, ERASMUS collection ingestion, and SeED report
// ingestion over UDP, verifying provers against a deterministic golden
// image through the amortized batch fast path.
//
//	rattd -addr 127.0.0.1:9779 -seed 42 -mem 65536 -block 1024
//
// -checkpoint makes the daemon persist its fleet state (enrollment,
// freshness counters, image bindings) to <path> and its delta chain
// <path>.dN, on exit and, in the background, every
// -checkpoint-interval (default 10s; it does not follow -stats, so
// `-stats 0 -checkpoint-interval 1s` prints nothing and persists every
// second); -restore loads that chain on startup so a restarted daemon
// keeps verifying enrolled provers without re-enrollment and still
// rejects replays. Without -restore, a -checkpoint path that already
// holds a chain is refused: the cold start's first checkpoint would
// replace it, and the counters it holds would be accepted again.
// -pprof exposes net/http/pprof for live profiling of the hot paths.
//
// Scaling out is N daemons, each on its own -addr with its own
// -checkpoint path and its own fleet: every daemon mints challenges
// under a key of its own, so they share nothing and need no
// coordination.
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
// Reports name their image on the wire ("name" or "name@vN").
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
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
		addr     = flag.String("addr", "127.0.0.1:9779", "UDP listen address")
		seed     = flag.Uint64("seed", 42, "golden image seed (provers must match)")
		memSize  = flag.Int("mem", 64<<10, "attested memory bytes")
		block    = flag.Int("block", 1<<10, "block size bytes")
		verbose  = flag.Bool("v", false, "log every verification decision")
		statsSec = flag.Int("stats", 30, "stats print interval in seconds (0 = only on exit)")

		checkpoint   = flag.String("checkpoint", "", "persist fleet state to <path> (base + delta chain) in the background")
		ckptInterval = flag.Duration("checkpoint-interval", 10*time.Second, "background checkpoint interval (0 = only on exit)")
		restore      = flag.Bool("restore", false, "restore fleet state from the -checkpoint chain on startup")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	var images imageFlags
	flag.Var(&images, "image", "register a golden image as name=path (repeatable; first is the default; overrides -seed/-mem)")
	flag.Parse()
	_, ckptErr := os.Stat(*checkpoint)
	switch {
	case *restore && *checkpoint == "":
		usage("-restore needs -checkpoint <path>")
	case !*restore && ckptErr == nil:
		usage("-checkpoint %s holds a checkpoint chain; pass -restore to resume it, or move it away to start over", *checkpoint)
	case *block <= 0:
		usage("-block %d (need > 0)", *block)
	case len(images) == 0 && (*memSize <= 0 || *memSize%*block != 0):
		usage("-mem %d is not a positive multiple of -block %d", *memSize, *block)
	}

	cfg := rattd.Config{BlockSize: *block}
	if len(images) > 0 {
		set := verifier.NewImageSet(verifier.ImageSetConfig{KeepEpochs: rattd.KeepEpochs})
		for _, spec := range images {
			name, path, ok := strings.Cut(spec, "=")
			if !ok || name == "" || path == "" {
				usage("-image %q (want name=path)", spec)
			}
			ref, err := os.ReadFile(path)
			if err != nil {
				usage("-image %s: %v", name, err)
			}
			if len(ref) == 0 || len(ref)%*block != 0 {
				usage("-image %s: %d bytes is not a positive multiple of block size %d", name, len(ref), *block)
			}
			if _, err := set.Add(name, verifier.ImageOf(ref, *block)); err != nil {
				usage("-image %s: %v", name, err)
			}
		}
		cfg.Images = set
	} else {
		cfg.Ref = rattd.GoldenImage(*seed, *memSize, *block)
	}
	if *verbose {
		cfg.Logf = log.Printf
	}

	if *pprofAddr != "" {
		go func() {
			log.Printf("rattd: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("rattd: pprof: %v", err)
			}
		}()
	}

	// Signals are caught before the serving line tells anyone the port.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tr, err := transport.Listen(transport.NetConfig{Addr: *addr})
	if err != nil {
		log.Fatalf("rattd: %v", err)
	}
	defer tr.Close()
	srv, err := rattd.Serve(tr, cfg)
	if err != nil {
		log.Fatalf("rattd: %v", err)
	}
	if *restore {
		cp, err := loadCheckpoint(*checkpoint)
		if err != nil {
			log.Fatalf("rattd: %v", err)
		}
		if cp != nil {
			srv.Restore(cp)
		}
	}

	// Persistence runs in the background: snapshots stream
	// stripe-at-a-time off the dirty tracking, so the verify path never
	// stalls for a write, and a clean server skips the write entirely.
	var ckpt *rattd.Checkpointer
	if *checkpoint != "" {
		ckpt = rattd.NewCheckpointer(srv, rattd.CheckpointerConfig{
			Path:     *checkpoint,
			Interval: *ckptInterval,
			Logf:     log.Printf,
		})
		ckpt.Start()
	}
	// "shard 0/1" is fixed text: bench/statsline.go's parseServing
	// learns the port only from a "rattd: shard " line.
	if cfg.Images != nil {
		log.Printf("rattd: shard 0/1 serving on %s as \"rattd\" (images %s, default %s, %d-byte blocks)",
			tr.Addr(), strings.Join(cfg.Images.Names(), ","), cfg.Images.Default(), *block)
	} else {
		log.Printf("rattd: shard 0/1 serving on %s as \"rattd\" (image seed=%d %d bytes in %d-byte blocks)",
			tr.Addr(), *seed, *memSize, *block)
	}

	printStats := func() {
		c, n := srv.Counts(), tr.Stats()
		// "balance=1.000" is fixed text: bench/statsline.go's
		// parseStatsLine fails a stats line without it.
		log.Printf("rattd: challenges=%d accepted=%d rejected=%d replays=%d enrolled=%d balance=1.000 | net rx=%d dup=%d malformed=%d qdrop=%d batches rx=%d tx=%d coalesced=%d",
			c.Challenges, c.Accepted, c.Rejected, c.Replays, srv.Enrolled(),
			n.Received, n.Dups, n.Malformed, n.QueueDrops, n.BatchesRecv, n.BatchesSent, n.Coalesced)
		log.Print(refusals(&c.Verdicts))
		if ckpt != nil {
			cs := ckpt.Stats()
			log.Printf("rattd: ckpt full=%d delta=%d compact=%d skip=%d err=%d | last write %v %dB dirty=%d pending-dirty=%d",
				cs.Fulls, cs.Deltas, cs.Compactions, cs.Skips, cs.Errors,
				cs.LastWrote.Round(time.Microsecond), cs.LastBytes, cs.LastDirty, srv.DirtyCount())
		}
	}

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
	srv.Close()
	tr.Close()
	if ckpt != nil {
		if err := ckpt.Close(); err != nil {
			log.Printf("rattd: final checkpoint: %v", err)
		}
	}
	printStats()
	fmt.Println("rattd: bye")
}

// refusals is the stats line that says why the daemon refused reports:
// each rejecting verdict's nonzero count, spelled by verifier.Reason.
func refusals(t *verifier.Tally) string {
	if t.Rejected() == 0 {
		return "rattd: refused none"
	}
	line := "rattd: refused"
	for r, n := range t {
		if r != int(verifier.ReasonOK) && n != 0 {
			line += fmt.Sprintf(" %q=%d", verifier.Reason(r), n)
		}
	}
	return line
}

// usage ends the daemon on a flag value it cannot serve with: one
// "rattd: " line on stderr and status 2, before any socket is bound.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rattd: "+format+"\n", args...)
	os.Exit(2)
}

// loadCheckpoint reads the checkpoint chain (base + deltas) at path;
// a missing base cold-starts the daemon (nil, nil), a corrupt base is a
// hard error, and stale or torn deltas degrade to the longest valid
// prefix of the chain.
func loadCheckpoint(path string) (*rattd.Checkpoint, error) {
	cp, chain, err := rattd.LoadChain(path)
	if os.IsNotExist(err) {
		log.Printf("rattd: no checkpoint at %s, cold start", path)
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	note := ""
	if chain.Truncated {
		note = ", torn tail salvaged"
	}
	if chain.Dropped > 0 {
		note += fmt.Sprintf(", %d stale deltas dropped", chain.Dropped)
	}
	log.Printf("rattd: restored from %s +%d deltas (%d erasmus / %d seed provers%s)",
		path, chain.Applied, len(cp.Erasmus), len(cp.Seed), note)
	return cp, nil
}
