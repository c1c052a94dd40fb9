package closedrules

import (
	"strconv"
	"sync"

	"closedrules/internal/itemset"
)

const (
	// recCacheShards is the number of independently locked stripes of
	// the recommendation cache. Must be a power of two so the shard
	// index is a cheap mask of the key hash. 32 stripes keep lock
	// contention negligible even under hundreds of concurrent callers
	// while the per-stripe maps stay small enough to reset cheaply.
	recCacheShards = 32

	// recShardLimit bounds each stripe; when a stripe fills it is reset
	// rather than evicted entry by entry — the working set of observed
	// baskets in a serving deployment is small compared to the total
	// capacity (recCacheShards × recShardLimit entries), so resets are
	// rare and only ever drop 1/recCacheShards of the cache.
	recShardLimit = 256
)

// recCache is the sharded per-snapshot recommendation cache: N stripes,
// each an independently mutex-guarded map keyed by (basket, k). Striping
// by key hash means concurrent Recommend calls for different baskets
// almost never contend on the same lock, unlike the previous single
// RWMutex-guarded map which serialized every cache fill behind one
// writer lock.
type recCache struct {
	shards [recCacheShards]recShard
}

// recShard is one stripe of the cache.
type recShard struct {
	mu sync.Mutex
	m  map[string][]Rule
}

// newRecCache returns an empty cache with all stripes initialized.
func newRecCache() *recCache {
	c := &recCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[string][]Rule)
	}
	return c
}

// recCacheKey is the cache key of a (basket, k) lookup: the basket's
// Itemset.Key, "#", then k in decimal. k holds no '#', so the last '#'
// splits the key and it is injective. It allocates once, for the
// string, unless the basket outgrows the stack buffer.
func recCacheKey(observed itemset.Itemset, k int) string {
	var buf [64]byte
	key := append(observed.AppendKey(buf[:0]), '#')
	return string(strconv.AppendInt(key, int64(k), 10))
}

// shardIndex hashes the key (FNV-1a) onto a stripe.
func shardIndex(key string) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h & (recCacheShards - 1))
}

// get returns the cached ranking for the key, if any. The returned
// slice is shared: callers must copy before handing it out.
func (c *recCache) get(key string) ([]Rule, bool) {
	s := &c.shards[shardIndex(key)]
	s.mu.Lock()
	v, ok := s.m[key]
	s.mu.Unlock()
	return v, ok
}

// put stores a ranking, resetting the stripe first when it is full.
func (c *recCache) put(key string, ranking []Rule) {
	s := &c.shards[shardIndex(key)]
	s.mu.Lock()
	if len(s.m) >= recShardLimit {
		s.m = make(map[string][]Rule)
	}
	s.m[key] = ranking
	s.mu.Unlock()
}

// entries counts the cached rankings across all stripes.
func (c *recCache) entries() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}
