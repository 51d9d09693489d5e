package rtec

import (
	"fmt"
	"sort"
)

// Rendezvous (highest-random-weight) shard assignment. Every key is
// hashed once per shard and owned by the shard with the highest score,
// so the mapping is a pure function of (key, shard count): no ring
// state to persist, and growing the tier from n to n+1 shards moves a
// key only when the NEW shard outscores every old one — an expected
// 1/(n+1) of the key space, each moved key landing on shard n. That is
// the minimal-movement property the reshard/rebalance machinery relies
// on (see ShardMap and the sharded tier in the root package).

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

// ShardOverride pins one key to a shard, overriding its rendezvous
// assignment (the rebalancer's migration record).
type ShardOverride struct {
	Key   string
	Shard int
}

// ShardMap is a key→shard assignment: rendezvous hashing with an
// override table layered on top for rebalanced keys. Shard only reads,
// so concurrent lookups are safe while no override changes; the tier
// changes overrides only between queries (routing and rebalancing are
// single-threaded phases).
type ShardMap struct {
	n        int
	override map[string]int
}

// NewShardMap builds an assignment over n shards.
func NewShardMap(n int) (*ShardMap, error) {
	if n <= 0 {
		return nil, fmt.Errorf("rtec: shard count must be positive, got %d", n)
	}
	return &ShardMap{n: n, override: make(map[string]int)}, nil
}

// Shard returns the shard owning key.
func (m *ShardMap) Shard(key string) int {
	if s, ok := m.override[key]; ok {
		return s
	}
	return RendezvousShard(key, m.n)
}

// SetOverride pins key to shard. Pinning a key to its rendezvous-native
// shard removes any override instead of recording a redundant one, so
// the override table only ever holds genuine deviations.
func (m *ShardMap) SetOverride(key string, shard int) error {
	if shard < 0 || shard >= m.n {
		return fmt.Errorf("rtec: override shard %d out of range [0,%d)", shard, m.n)
	}
	if RendezvousShard(key, m.n) == shard {
		delete(m.override, key)
		return nil
	}
	m.override[key] = shard
	return nil
}

// Overrides returns the override table as (key, shard) pairs sorted by
// key — the deterministic form checkpoints persist.
func (m *ShardMap) Overrides() []ShardOverride {
	out := make([]ShardOverride, 0, len(m.override))
	for k, s := range m.override {
		out = append(out, ShardOverride{Key: k, Shard: s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
