package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"saferatt/internal/rattd"
	"saferatt/internal/transport"
)

// E14 is the sharded-verifier scaling experiment: a fleet of
// ≥100k real-socket provers attesting (SMART round + ERASMUS
// collection each) against a rattd tier of N shared-nothing shards on
// one host, swept over shard counts. Each row reports aggregate
// verifications/sec, client-side SMART round-trip percentiles, and
// the tier's per-shard load-balance ratio — the quantities
// bench/baseline.json keeps. Scaling past 1 shard measures what the
// tier removes: the daemon-wide mutex plus the single socket's
// receive path. On a single-core host the sweep still validates
// routing, leasing, and balance, but verifications/sec cannot scale
// (every shard shares the one core): bench/baseline.json files
// scaling_1_to_8 as unmeasured.
type E14Config struct {
	// Provers is the fleet size per row; default 100_000.
	Provers int
	// ShardCounts sweeps the tier width; default {1, 2, 4, 8}.
	ShardCounts []int
	// MemSize / BlockSize set the prover image; defaults 4 KiB / 256.
	MemSize   int
	BlockSize int
	// History is the ERASMUS collection depth; default 2.
	History int
	// Concurrency caps simultaneously active provers; default 512.
	Concurrency int
	// Seed parameterizes the golden image.
	Seed uint64
	// Logf, if set, receives per-row progress.
	Logf func(format string, args ...any)
}

func (c *E14Config) setDefaults() {
	if c.Provers == 0 {
		c.Provers = 100_000
	}
	if c.ShardCounts == nil {
		c.ShardCounts = []int{1, 2, 4, 8}
	}
	if c.MemSize == 0 {
		c.MemSize = 4 << 10
	}
	if c.BlockSize == 0 {
		c.BlockSize = 256
	}
	if c.History == 0 {
		c.History = 2
	}
	if c.Concurrency == 0 {
		c.Concurrency = 512
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
}

// E14Row is one shard-count operating point.
type E14Row struct {
	Shards  int
	Provers int

	SMARTOK   int
	CollectOK int
	Failures  int

	// Verified is the daemon-side count of reports verified clean
	// across the tier; Replays/Rejected should be zero in a healthy
	// run.
	Verified uint64
	Rejected uint64

	WallNS int64
	// VerPerSec is Verified divided by wall time — the tier's
	// aggregate verification throughput.
	VerPerSec float64
	// P50/P99/Max are client-side SMART round-trip latencies.
	P50, P99, Max time.Duration
	// Balance is max/min per-shard handled reports; PerShard the raw
	// per-shard counts.
	Balance  float64
	PerShard []uint64
}

// E14ShardScale sweeps the tier width at fixed fleet size. Rows run
// serially: each builds a fresh tier (own UDP sockets), runs the full
// fleet through it, and tears it down, so rows never share state and
// wall time is honestly per-row.
func E14ShardScale(cfg E14Config) ([]E14Row, error) {
	cfg.setDefaults()
	image := rattd.GoldenImage(cfg.Seed, cfg.MemSize, cfg.BlockSize)
	var rows []E14Row
	for _, n := range cfg.ShardCounts {
		row, err := e14Point(cfg, image, n)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
		if cfg.Logf != nil {
			cfg.Logf("e14: %d shards: %d provers, %.0f ver/s, balance %.3f",
				n, row.Provers, row.VerPerSec, row.Balance)
		}
	}
	return rows, nil
}

func e14Point(cfg E14Config, image []byte, shards int) (E14Row, error) {
	row := E14Row{Shards: shards, Provers: cfg.Provers}
	var trs []transport.Transport
	var addrs []string
	for i := 0; i < shards; i++ {
		l, err := transport.Listen(transport.NetConfig{})
		if err != nil {
			return row, err
		}
		defer l.Close()
		trs = append(trs, l)
		addrs = append(addrs, l.Addr().String())
	}
	tier, err := rattd.ServeTier(trs, rattd.TierConfig{
		Base: rattd.Config{Ref: image, BlockSize: cfg.BlockSize},
	})
	if err != nil {
		return row, err
	}
	defer tier.Close()

	start := time.Now()
	res, err := rattd.RunFleet(rattd.FleetConfig{
		Addrs:       addrs,
		Provers:     cfg.Provers,
		Concurrency: cfg.Concurrency,
		Image:       image,
		BlockSize:   cfg.BlockSize,
		History:     cfg.History,
	})
	if err != nil {
		return row, err
	}
	row.WallNS = time.Since(start).Nanoseconds()

	row.SMARTOK = res.SMARTOK
	row.CollectOK = res.CollectOK
	row.Failures = res.Failures()
	row.P50, row.P99, row.Max = res.P50, res.P99, res.Max

	counts := tier.Counts()
	row.Verified = counts.Accepted
	row.Rejected = counts.Rejected
	row.VerPerSec = float64(counts.Accepted) / (float64(row.WallNS) / 1e9)
	row.Balance = tier.Balance()
	for _, c := range tier.PerShard() {
		row.PerShard = append(row.PerShard, c.Accepted+c.Rejected)
	}
	return row, nil
}

// RenderE14 formats the sweep as a text table.
func RenderE14(rows []E14Row) string {
	var b strings.Builder
	b.WriteString("E14: sharded verifier tier — fleet attestation throughput vs shard count\n")
	fmt.Fprintf(&b, "%-7s %-8s %-6s %-10s %-10s %-9s %-9s %-9s %-8s %s\n",
		"shards", "provers", "fail", "verified", "ver/s", "p50", "p99", "max", "balance", "per-shard")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7d %-8d %-6d %-10d %-10.0f %-9s %-9s %-9s %-8.3f %v\n",
			r.Shards, r.Provers, r.Failures, r.Verified, r.VerPerSec,
			e14Dur(r.P50), e14Dur(r.P99), e14Dur(r.Max), r.Balance, r.PerShard)
	}
	b.WriteString("ver/s is daemon-side clean verifications over wall time; balance is max/min per-shard handled reports\n")
	b.WriteString("each row is a fresh tier of N UDP sockets on this host; provers route by rendezvous hash (rattd.ShardFor)\n")
	return b.String()
}

// E14CSV writes the sweep machine-readably.
func E14CSV(w io.Writer, rows []E14Row) error {
	if _, err := fmt.Fprintln(w, "shards,provers,failures,verified,rejected,wall_ns,ver_per_sec,p50_ns,p99_ns,max_ns,balance"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%.1f,%d,%d,%d,%.4f\n",
			r.Shards, r.Provers, r.Failures, r.Verified, r.Rejected,
			r.WallNS, r.VerPerSec, r.P50.Nanoseconds(), r.P99.Nanoseconds(), r.Max.Nanoseconds(), r.Balance); err != nil {
			return err
		}
	}
	return nil
}

func e14Dur(d time.Duration) string { return d.Round(10 * time.Microsecond).String() }
