package rtec

// Rendezvous (highest-random-weight) shard assignment. Every key is
// hashed once per shard and owned by the shard with the highest score,
// so the mapping is a pure function of (key, shard count): no ring
// state to persist, and growing the tier from n to n+1 shards moves a
// key only when the NEW shard outscores every old one — an expected
// 1/(n+1) of the key space, each moved key landing on shard n. The
// sharded tier in the root package routes by it and never moves a key
// between shards while it runs.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// keyHash is FNV-1a over the key bytes.
func keyHash(key string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return h
}

// shardWeight scores one (key hash, shard) pair: the splitmix64
// finalizer over the combination. FNV alone has too little avalanche
// on the 8 shard-index bytes — the argmax over shards amplifies any
// bias straight into excess key movement on reshard — so the full
// mixer does the spreading.
func shardWeight(kh uint64, shard int) uint64 {
	z := kh + 0x9e3779b97f4a7c15*uint64(shard+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RendezvousShard maps key to a shard in [0, n): the shard whose
// (key, shard) hash scores highest, ties won by the lower index.
// Deterministic across runs and processes. n must be positive; n <= 1
// always returns 0.
func RendezvousShard(key string, n int) int {
	kh := keyHash(key)
	best, bestW := 0, shardWeight(kh, 0)
	for i := 1; i < n; i++ {
		if w := shardWeight(kh, i); w > bestW {
			best, bestW = i, w
		}
	}
	return best
}
