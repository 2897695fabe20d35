package rattd

// ShardFor maps a prover name onto one of n shards by rendezvous
// (highest-random-weight) hashing: the shard whose mixed (name,
// shard) weight is largest wins. It is pure and stable across
// processes, and growing n to n+1 reassigns only ~1/(n+1) of the
// names. No daemon routes by it: scaling out is N daemons, each with
// its own fleet. It stays because the benchmark times it
// (rattd.shardfor_ns).
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

// fnv64a is FNV-1a over the name bytes — allocation-free (no []byte
// conversion) and stable across processes, so a name lands on the same
// stripe (stripeFor) in every daemon and every checkpoint epoch.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection that
// turns a hash into an independent uniform weight, which is what makes
// rendezvous hashing balance and the stripe mask's low bits uniform.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
