package rattd

import (
	"fmt"
	"net"
	"strconv"
)

// This file routes the sharded verifier tier: rendezvous hashing fixes
// the prover->shard assignment, so clients and daemons agree without
// talking to each other, and the shards share nothing. HYDRA's isolated
// verifier domains motivate the shape; ERASMUS makes it cheap, because
// self-measuring provers only ever touch "their" shard.

// ShardFor maps a prover name onto one of n shards by rendezvous
// (highest-random-weight) hashing: the shard whose mixed (name,
// shard) weight is largest wins. Clients and the daemon share
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
