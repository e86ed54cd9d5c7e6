package service

import (
	"sync"

	"repro/internal/moldable"
)

// Bounded caches keyed by canonical hash. Both use the same crude but
// dependable policy: sharded maps under per-shard mutexes, and when a
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

// memoRegistry maps instance keys to their memoized twin, so repeated
// submissions of the same instance — even under different options or ε —
// share one oracle cache. Entries also carry the per-instance stats
// closure for aggregate hit/miss reporting. Retention is bounded twice:
// by entry count and by estimated retained bytes (a dense memo table is
// 8·m bytes per job, so 256 large table-backed instances could
// otherwise pin tens of gigabytes in a long-running daemon).
type memoRegistry struct {
	mu     sync.Mutex
	m      map[uint64]memoEntry //sched:guardedby mu
	cap    int
	budget int64 // max estimated retained bytes
	bytes  int64 //sched:guardedby mu
	// Counters of evicted entries, folded into stats() so the aggregate
	// stays monotone across evictions (the wire protocol promises
	// cumulative counters).
	retiredHits, retiredMisses int64 //sched:guardedby mu
}

type memoEntry struct {
	in    *moldable.Instance
	cost  int64
	stats func() (hits, misses int64)
}

func newMemoRegistry(cap int, budget int64) *memoRegistry {
	return &memoRegistry{m: make(map[uint64]memoEntry), cap: cap, budget: budget}
}

// memoCost estimates the bytes a memoized twin retains: one memo table
// per job MemoizeInstance actually wrapped (O(1) oracles stay bare and
// cost nothing).
func memoCost(twin *moldable.Instance) int64 {
	n := 0
	for _, j := range twin.Jobs {
		if _, ok := j.(*moldable.Memo); ok {
			n++
		}
	}
	return moldable.MemoFootprint(twin.M) * int64(n)
}

// get returns the memoized twin of in, creating (and retaining) it on
// first sight of the key. The twin — up to n memo tables of m slots —
// is built outside r.mu so a miss does not serialize the other
// workers; a racing builder of the same key loses at the re-check and
// its unused twin is dropped.
func (r *memoRegistry) get(key uint64, in *moldable.Instance) *moldable.Instance {
	r.mu.Lock()
	e, ok := r.m[key]
	r.mu.Unlock()
	if ok {
		return e.in
	}
	twin, stats := moldable.MemoizeInstance(in)
	cost := memoCost(twin)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.m[key]; ok {
		return e.in
	}
	for len(r.m) > 0 && (len(r.m) >= r.cap || r.bytes+cost > r.budget) {
		for k, e := range r.m { // evict an arbitrary entry
			h, m := e.stats()
			r.retiredHits += h
			r.retiredMisses += m
			r.bytes -= e.cost
			delete(r.m, k)
			break
		}
	}
	r.m[key] = memoEntry{in: twin, cost: cost, stats: stats}
	r.bytes += cost
	return twin
}

// stats sums oracle hits and misses over all retained memos plus
// everything retired by eviction (monotone).
func (r *memoRegistry) stats() (hits, misses int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	hits, misses = r.retiredHits, r.retiredMisses
	for _, e := range r.m {
		h, m := e.stats()
		hits += h
		misses += m
	}
	return
}

func (r *memoRegistry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m)
}
