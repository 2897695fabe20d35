package rattd

import (
	"fmt"
	"math"
	"sync"

	"saferatt/internal/transport"
)

// Tier is a horizontally sharded verifier: N independent Servers,
// each bound to its own transport (its own UDP socket under
// cmd/rattd), each owning its verifier.Batch, dedup windows, and
// per-prover monotonic-counter tables outright. The only shared
// object is the Coordinator, consulted once per exhausted challenge
// window — the report hot path of one shard never takes a lock any
// other shard can hold, so throughput scales with cores instead of
// serializing on a daemon-wide mutex.
//
// Provers are assigned to shards by ShardFor on the client side;
// there is no routing hop, no shared table, and no cross-shard
// traffic per report.
type Tier struct {
	coord *Coordinator
	cfg   TierConfig

	mu     sync.Mutex // guards shards/trs across Restart; never on a report path
	shards []*Server
	trs    []transport.Transport
}

// TierConfig assembles a Tier.
type TierConfig struct {
	// Base is the per-shard server configuration. Name and Lease are
	// overridden per shard (tierShardName(i, n) and the coordinator's
	// lease hook respectively); everything else is shared verbatim —
	// all shards serve the same golden image under the same key.
	Base Config
	// Window is the challenge-counter lease size; 0 means
	// DefaultLeaseWindow.
	Window uint64
}

// ServeTier starts one shard per transport and returns the running
// tier. len(trs) fixes the tier width; clients must route with the
// same width (FleetConfig.Addrs of equal length).
func ServeTier(trs []transport.Transport, cfg TierConfig) (*Tier, error) {
	n := len(trs)
	if n == 0 {
		return nil, fmt.Errorf("rattd: tier needs at least one transport")
	}
	t := &Tier{
		coord:  NewCoordinator(cfg.Window),
		cfg:    cfg,
		shards: make([]*Server, n),
		trs:    append([]transport.Transport(nil), trs...),
	}
	for i := range trs {
		srv, err := t.serveShard(i)
		if err != nil {
			t.Close()
			return nil, err
		}
		t.shards[i] = srv
	}
	return t, nil
}

// serveShard builds shard i's Server on its transport.
func (t *Tier) serveShard(i int) (*Server, error) {
	scfg := t.cfg.Base
	scfg.Name = tierShardName(i, len(t.shards))
	shard := i
	scfg.Lease = func() EpochLease { return t.coord.Lease(shard) }
	return Serve(t.trs[i], scfg)
}

// Len returns the tier width.
func (t *Tier) Len() int { return len(t.shards) }

// Shard returns shard i's Server.
func (t *Tier) Shard(i int) *Server {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.shards[i]
}

// servers snapshots the shard slice.
func (t *Tier) servers() []*Server {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Server(nil), t.shards...)
}

// Counts sums verification outcomes across shards.
func (t *Tier) Counts() Counts {
	var total Counts
	for _, s := range t.servers() {
		if s == nil {
			continue
		}
		c := s.Counts()
		total.Challenges += c.Challenges
		total.Accepted += c.Accepted
		total.Rejected += c.Rejected
		total.Replays += c.Replays
	}
	return total
}

// PerShard returns each shard's verification outcomes, indexed by
// shard.
func (t *Tier) PerShard() []Counts {
	shards := t.servers()
	out := make([]Counts, len(shards))
	for i, s := range shards {
		if s != nil {
			out[i] = s.Counts()
		}
	}
	return out
}

// Balance returns the tier's load-balance ratio: max over min of
// per-shard handled reports (accepted + rejected). 1.0 is perfect;
// rendezvous hashing over uniform prover names keeps real fleets
// close to it. A shard with zero reports while another has load
// yields +Inf; an idle tier yields 1.
func (t *Tier) Balance() float64 {
	min, max := uint64(math.MaxUint64), uint64(0)
	for _, c := range t.PerShard() {
		n := c.Accepted + c.Rejected
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max == 0 {
		return 1
	}
	if min == 0 {
		return math.Inf(1)
	}
	return float64(max) / float64(min)
}

// Restore installs per-shard checkpoints (nil entries are skipped)
// and re-announces their leases to the coordinator so freshly minted
// leases stay disjoint from every counter window the previous
// incarnation may have used. Call it on a just-started tier, before
// traffic.
func (t *Tier) Restore(cps []*Checkpoint) error {
	if len(cps) != len(t.shards) {
		return fmt.Errorf("rattd: %d checkpoints for a %d-shard tier", len(cps), len(t.shards))
	}
	for i, cp := range cps {
		if cp == nil {
			continue
		}
		t.Shard(i).Restore(cp)
		t.coord.Observe(cp.Lease)
	}
	return nil
}

// Restart replaces shard i with a fresh Server bound to tr — the
// crash-recovery path: the old shard's socket died with it, the
// operator rebinds the same address, and the checkpoint (nil for a
// cold restart) carries the fleet state across. The restored lease
// is re-observed so the coordinator never re-issues its window.
func (t *Tier) Restart(i int, tr transport.Transport, cp *Checkpoint) error {
	if i < 0 || i >= len(t.shards) {
		return fmt.Errorf("rattd: restart of shard %d in a %d-shard tier", i, len(t.shards))
	}
	t.mu.Lock()
	if old := t.shards[i]; old != nil {
		old.Close()
	}
	t.trs[i] = tr
	t.mu.Unlock()
	srv, err := t.serveShard(i)
	if err != nil {
		return err
	}
	if cp != nil {
		srv.Restore(cp)
		t.coord.Observe(cp.Lease)
	}
	t.mu.Lock()
	t.shards[i] = srv
	t.mu.Unlock()
	return nil
}

// Close unbinds every shard from its transport. The transports
// themselves are the caller's to close.
func (t *Tier) Close() {
	for _, s := range t.servers() {
		if s != nil {
			s.Close()
		}
	}
}
