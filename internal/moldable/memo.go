package moldable

import (
	"math"
	"sync"
	"sync/atomic"
)

// Oracle memoization. The paper's algorithms never enumerate all m
// processor counts, but they do re-probe the same ones: γ_j(v) binary
// searches over [1, m] visit the same midpoint tree for every threshold
// v, the estimator evaluates each breakpoint candidate with a full pass
// over the jobs, and a dual binary search repeats both O(log 1/ε) times.
// Memo caches t_j(p) per job so each distinct (j, p) pair is evaluated
// once per instance lifetime — across dual calls, across algorithms, and
// (through the service layer, which keys memoized instances by content
// hash) across repeated submissions of the same instance. It pays off
// only for oracles that cost more than O(1) (NeedsMemo): in front of a
// closed form, the cache costs more than the evaluation it saves.
//
// See DESIGN.md §5 for where this sits in the serving architecture.

const (
	// memoDenseMax is the largest m backed by a dense table: one slot per
	// processor count, ≤ 64 KiB per job.
	memoDenseMax = 1 << 13
	// memoMapBound caps the bounded-map variant used for larger m. A
	// binary search probes O(log m) points, so even thousands of dual
	// calls stay far below this; when the cap is reached new points pass
	// through uncached (existing entries keep hitting).
	memoMapBound = 1 << 12
)

// Memo wraps a Job and caches its oracle evaluations. It is safe for
// concurrent use and preserves monotonicity trivially (it returns the
// wrapped job's values unchanged). Create with Memoize.
type Memo struct {
	J Job // the wrapped oracle

	// Dense path (m ≤ memoDenseMax): slot p-1 holds Float64bits(t)+1,
	// zero meaning empty. The +1 keeps a cached t = +0.0 distinguishable
	// from an empty slot; the one colliding encoding (the all-ones NaN)
	// decodes as a permanent miss, which only costs a recomputation.
	dense []atomic.Uint64

	// Bounded-map path (larger m).
	mu    sync.RWMutex
	vals  map[int]Time //sched:guardedby mu
	bound int

	hits, misses atomic.Int64
}

// Memoize wraps j with a cache sized for processor counts 1..m: a dense
// table when m ≤ 8192, a bounded map otherwise. Already-memoized jobs
// are returned as-is.
func Memoize(j Job, m int) *Memo {
	if c, ok := j.(*Memo); ok {
		return c
	}
	c := &Memo{J: j}
	if m <= memoDenseMax {
		c.dense = make([]atomic.Uint64, m)
	} else {
		c.vals = make(map[int]Time, 64)
		c.bound = memoMapBound
	}
	return c
}

// Time returns the cached t(p), evaluating the wrapped oracle on a miss.
// Probes outside 1..m pass through uncached.
func (c *Memo) Time(p int) Time {
	if c.dense != nil {
		if p < 1 || p > len(c.dense) {
			return c.J.Time(p)
		}
		if enc := c.dense[p-1].Load(); enc != 0 {
			c.hits.Add(1)
			return math.Float64frombits(enc - 1)
		}
		c.misses.Add(1)
		t := c.J.Time(p)
		c.dense[p-1].Store(math.Float64bits(t) + 1)
		return t
	}
	c.mu.RLock()
	t, ok := c.vals[p]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return t
	}
	c.misses.Add(1)
	t = c.J.Time(p)
	c.mu.Lock()
	if len(c.vals) < c.bound {
		c.vals[p] = t
	}
	c.mu.Unlock()
	return t
}

// Stats returns the cache hit and miss counts so far.
func (c *Memo) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// MemoFootprint estimates the bytes one fully warmed Memo retains for a
// job sized for m processors. Capacity planners (the service layer's
// memo-registry byte budget) use this instead of hardcoding the dense
// cutoff and map bound.
func MemoFootprint(m int) int64 {
	if m <= memoDenseMax {
		return int64(m) * 8
	}
	return memoMapBound * 16 // map entry ≈ key + value
}

// MemoizeInstance wraps every job of in that NeedsMemo with a Memo sized
// for in.M — O(1) oracles such as the closed forms stay unwrapped — and
// returns the new instance plus a function reporting the aggregate
// (hits, misses) over the wrapped jobs. The original instance is not
// modified; the memoized instance can be reused across any number of
// Schedule calls (that reuse is the whole point — see internal/service).
func MemoizeInstance(in *Instance) (*Instance, func() (hits, misses int64)) {
	jobs := make([]Job, len(in.Jobs))
	var memos []*Memo
	for i, j := range in.Jobs {
		if !NeedsMemo(j) {
			jobs[i] = j
			continue
		}
		m := Memoize(j, in.M)
		memos = append(memos, m)
		jobs[i] = m
	}
	stats := func() (hits, misses int64) {
		for _, m := range memos {
			h, ms := m.Stats()
			hits += h
			misses += ms
		}
		return
	}
	return &Instance{M: in.M, Jobs: jobs}, stats
}
