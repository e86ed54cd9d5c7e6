package service

import "sync"

// The bounded result cache, keyed by canonical hash. Its policy is crude
// but dependable: one map under one mutex, and when the map is full,
// one arbitrary entry is evicted (Go map iteration order is
// randomized, so this is uniform-ish random eviction — no LRU
// bookkeeping on the hot path). Capacity bounds are what matter for a
// long-running daemon; recency approximation is not worth a lock-held
// list for workloads where a repeated instance is re-submitted within
// seconds anyway.

// resultCache maps result keys (instance ⊕ options) to completed
// Results.
type resultCache struct {
	mu  sync.Mutex
	m   map[uint64]Result //sched:guardedby mu
	cap int
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{m: make(map[uint64]Result), cap: capacity}
}

func (c *resultCache) get(key uint64) (Result, bool) {
	c.mu.Lock()
	r, ok := c.m[key]
	c.mu.Unlock()
	return r, ok
}

func (c *resultCache) put(key uint64, r Result) {
	c.mu.Lock()
	if _, ok := c.m[key]; !ok && len(c.m) >= c.cap {
		for k := range c.m { // evict an arbitrary entry
			delete(c.m, k)
			break
		}
	}
	c.m[key] = r
	c.mu.Unlock()
}

func (c *resultCache) len() int {
	c.mu.Lock()
	n := len(c.m)
	c.mu.Unlock()
	return n
}
