package rattd

import (
	"fmt"
	"math"
	"net"
	"strconv"
	"sync"
)

// This file is the control plane of the sharded verifier tier: a
// Coordinator that (a) fixes the prover->shard assignment via
// rendezvous hashing so clients and daemons agree without talking to
// each other, and (b) leases disjoint epoch windows of the challenge
// nonce-counter space to shards so every shard mints globally unique
// SMART challenges without sharing a counter (and hence without
// sharing a lock) on any request path. HYDRA's isolated verifier
// domains motivate the shape; ERASMUS makes it cheap, because
// self-measuring provers only ever touch "their" shard.

// DefaultLeaseWindow is how many challenge-nonce counters one epoch
// lease spans. A shard returns to the coordinator once per window —
// at the default, once per 65536 SMART challenges — so coordination
// cost is amortized to noise while a crashed shard strands at most
// one window of the (2^64) counter space.
const DefaultLeaseWindow = 1 << 16

// EpochLease grants one shard the half-open challenge-counter range
// [Lo, Hi). Within a lease the shard increments a private counter;
// across leases the coordinator guarantees disjointness, so two
// shards can never issue the same challenge nonce. Epoch is the
// coordinator's lease sequence number (monotonic across the tier).
type EpochLease struct {
	Shard int    // shard index the lease was granted to
	Epoch uint64 // tier-wide lease sequence number
	Lo    uint64 // first counter in the lease (inclusive)
	Hi    uint64 // first counter past the lease (exclusive)
}

// Valid reports whether the lease spans a non-empty counter range.
func (l EpochLease) Valid() bool { return l.Lo < l.Hi }

// Coordinator hands out epoch leases. It is the only cross-shard
// synchronization point in the tier, and it is off every hot path:
// shards call Lease once per exhausted window, never per report.
type Coordinator struct {
	mu     sync.Mutex
	window uint64
	next   uint64 // next unleased counter
	epoch  uint64 // next lease sequence number
}

// NewCoordinator creates a coordinator handing out leases of the given
// window size (0 means DefaultLeaseWindow).
func NewCoordinator(window uint64) *Coordinator {
	if window == 0 {
		window = DefaultLeaseWindow
	}
	// Counter 0 is never leased: the pre-shard daemon started its
	// counter sequence at 1, and keeping that origin makes a 1-shard
	// tier byte-identical to a plain Server.
	return &Coordinator{window: window, next: 1}
}

// Lease grants shard the next unleased window. Safe for concurrent
// use by all shards.
func (c *Coordinator) Lease(shard int) EpochLease {
	c.mu.Lock()
	defer c.mu.Unlock()
	lo := c.next
	hi := lo + c.window
	if hi < lo { // counter space exhausted (2^64 challenges in)
		hi = math.MaxUint64
	}
	l := EpochLease{Shard: shard, Epoch: c.epoch, Lo: lo, Hi: hi}
	c.epoch++
	c.next = hi
	return l
}

// Observe registers a lease granted by an earlier coordinator
// incarnation (a shard restored from checkpoint re-announces its
// lease). Future leases are guaranteed disjoint from every observed
// one, and the epoch sequence resumes past it.
func (c *Coordinator) Observe(l EpochLease) {
	if !l.Valid() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if l.Hi > c.next {
		c.next = l.Hi
	}
	if l.Epoch >= c.epoch {
		c.epoch = l.Epoch + 1
	}
}

// ShardFor maps a prover name onto one of n shards by rendezvous
// (highest-random-weight) hashing: the shard whose mixed (name,
// shard) weight is largest wins. Clients and the coordinator share
// this one pure function, so routing needs no directory service, and
// growing the tier from n to n+1 shards reassigns only ~1/(n+1) of
// the provers (the minimal-disruption property ring hashing needs
// virtual nodes to approximate).
func ShardFor(name string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv64a(name)
	best, bestW := 0, uint64(0)
	for i := 0; i < n; i++ {
		if w := mix64(h ^ (uint64(i)+1)*0x9e3779b97f4a7c15); w >= bestW {
			best, bestW = i, w
		}
	}
	return best
}

// ShardName is the endpoint name of shard i in a multi-shard tier
// ("rattd0", "rattd1", ...). A 1-shard tier keeps the plain "rattd"
// name so it is indistinguishable from an unsharded daemon.
func ShardName(i int) string { return "rattd" + strconv.Itoa(i) }

// tierShardName picks the endpoint name for shard i of an n-shard
// tier; both RunFleet and ServeTier route through it so client and
// daemon sides cannot drift.
func tierShardName(i, n int) string {
	if n <= 1 {
		return "rattd"
	}
	return ShardName(i)
}

// TierAddrs lays an n-shard tier out from its base address: shard i
// listens on the base port plus i. A 1-shard tier keeps base untouched,
// and port 0 stays 0 for every shard (the kernel picks each port).
func TierAddrs(base string, n int) ([]string, error) {
	if n == 1 {
		return []string{base}, nil
	}
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return nil, fmt.Errorf("rattd: tier address %q: %v", base, err)
	}
	port, err := strconv.ParseUint(portStr, 10, 16)
	if err != nil {
		return nil, fmt.Errorf("rattd: tier address %q: %v", base, err)
	}
	if n < 1 || int(port)+n-1 > 65535 {
		return nil, fmt.Errorf("rattd: tier address %q: %d shards do not fit below port 65536", base, n)
	}
	addrs := make([]string, n)
	for i := range addrs {
		p := int(port)
		if p != 0 {
			p += i
		}
		addrs[i] = net.JoinHostPort(host, strconv.Itoa(p))
	}
	return addrs, nil
}

// fnv64a is FNV-1a over the name bytes — allocation-free (no []byte
// conversion) and stable across processes, which the routing contract
// requires: the same name must land on the same shard from any
// client, daemon, or checkpoint epoch.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection that
// turns the (name, shard) combination into an independent uniform
// weight, which is what makes rendezvous hashing balance.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
