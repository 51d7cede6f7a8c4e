package oracle

import "sync"

// shardedCache memoizes estimate results under per-shard locks so
// concurrent clients rarely contend. A cache belongs to exactly one
// snapshot (the Engine replaces the cache together with the snapshot on
// Swap), so entries can never outlive the artifacts that produced them
// and never need invalidation.
type shardedCache struct {
	shards   []cacheShard
	capacity int // per shard; <= 0 disables the cache entirely
	// Events count into the owning engine's cumulative counters (the
	// exposition counters must stay monotone across Swaps).
	metrics *engineMetrics

	// This cache's own era is those counters minus their values when it
	// was created.
	baseHits, baseMisses, baseEvicts int64
}

type cacheShard struct {
	mu sync.Mutex
	m  map[uint64]EstimateResult
}

// newCache creates a cache with the given shard count (rounded up to a
// power of two) and per-shard capacity.
func newCache(shards, capacity int, metrics *engineMetrics) *shardedCache {
	if shards < 1 {
		shards = 1
	}
	pow := 1
	for pow < shards {
		pow <<= 1
	}
	c := &shardedCache{
		shards:     make([]cacheShard, pow),
		capacity:   capacity,
		metrics:    metrics,
		baseHits:   metrics.cacheHits.Value(),
		baseMisses: metrics.cacheMisses.Value(),
		baseEvicts: metrics.cacheEvicts.Value(),
	}
	if capacity > 0 {
		for i := range c.shards {
			c.shards[i].m = make(map[uint64]EstimateResult)
		}
	}
	return c
}

// pairKey is the ordered pair (u, v); order is preserved so a cached
// answer is bit-for-bit the answer a direct call with the same argument
// order would produce.
func pairKey(u, v int) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// splitmix64 scrambles the key so shard selection is uniform even for
// the sequential node ids real query streams use.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (c *shardedCache) shard(key uint64) *cacheShard {
	return &c.shards[splitmix64(key)&uint64(len(c.shards)-1)]
}

// get returns the cached result for (u, v), counting the hit or miss.
func (c *shardedCache) get(u, v int) (EstimateResult, bool) {
	if c.capacity <= 0 {
		c.metrics.cacheMisses.Inc()
		return EstimateResult{}, false
	}
	key := pairKey(u, v)
	s := c.shard(key)
	s.mu.Lock()
	res, ok := s.m[key]
	s.mu.Unlock()
	if ok {
		c.metrics.cacheHits.Inc()
	} else {
		c.metrics.cacheMisses.Inc()
	}
	return res, ok
}

// put stores a result, evicting an arbitrary entry when the shard is at
// capacity.
func (c *shardedCache) put(u, v int, res EstimateResult) {
	if c.capacity <= 0 {
		return
	}
	key := pairKey(u, v)
	s := c.shard(key)
	s.mu.Lock()
	if _, exists := s.m[key]; !exists && len(s.m) >= c.capacity {
		for k := range s.m {
			delete(s.m, k)
			c.metrics.cacheEvicts.Inc()
			break
		}
	}
	s.m[key] = res
	s.mu.Unlock()
}

// size reports the total number of cached entries.
func (c *shardedCache) size() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += len(s.m)
		s.mu.Unlock()
	}
	return total
}

// CacheStats reports one cache's counters, for its own snapshot era.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Size      int   `json:"size"`
	Shards    int   `json:"shards"`
	Capacity  int   `json:"capacity_per_shard"`
}

func (c *shardedCache) stats() CacheStats {
	return CacheStats{
		Hits:      c.metrics.cacheHits.Value() - c.baseHits,
		Misses:    c.metrics.cacheMisses.Value() - c.baseMisses,
		Evictions: c.metrics.cacheEvicts.Value() - c.baseEvicts,
		Size:      c.size(),
		Shards:    len(c.shards),
		Capacity:  c.capacity,
	}
}
