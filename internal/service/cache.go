package service

import "sync"

// The bounded result cache, keyed by canonical hash. Its policy is crude
// but dependable: sharded maps under per-shard mutexes, and when a
// shard is full, one arbitrary entry is evicted (Go map iteration order
// is randomized, so this is uniform-ish random eviction — no LRU
// bookkeeping on the hot path). Capacity bounds are what matter for a
// long-running daemon; recency approximation is not worth a lock-held
// list for workloads where a repeated instance is re-submitted within
// seconds anyway.

// resultCache maps result keys (instance ⊕ options) to completed
// Results.
type resultCache struct {
	shards []resultShard
	cap    int // per shard
}

type resultShard struct {
	mu sync.Mutex
	m  map[uint64]Result //sched:guardedby mu
}

// cacheShards is the number of result-cache shards.
const cacheShards = 8

func newResultCache(total int) *resultCache {
	c := &resultCache{shards: make([]resultShard, cacheShards), cap: (total + cacheShards - 1) / cacheShards}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]Result)
	}
	return c
}

func (c *resultCache) shard(key uint64) *resultShard {
	return &c.shards[(key*0x9e3779b97f4a7c15)>>32%uint64(len(c.shards))]
}

func (c *resultCache) get(key uint64) (Result, bool) {
	s := c.shard(key)
	s.mu.Lock()
	r, ok := s.m[key]
	s.mu.Unlock()
	return r, ok
}

func (c *resultCache) put(key uint64, r Result) {
	s := c.shard(key)
	s.mu.Lock()
	if _, ok := s.m[key]; !ok && len(s.m) >= c.cap {
		for k := range s.m { // evict an arbitrary entry
			delete(s.m, k)
			break
		}
	}
	s.m[key] = r
	s.mu.Unlock()
}

func (c *resultCache) len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].m)
		c.shards[i].mu.Unlock()
	}
	return n
}
