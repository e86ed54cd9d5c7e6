// Package lockorder is the golden corpus for the lockorder analyzer:
// direct and call-composed lock-ordering cycles, same-mutex nested
// acquisition (direct and through a call), TryLock as a non-blocking
// non-edge, and ignore mechanics for module-level diagnostics.
package lockorder

import "sync"

// --- direct two-function cycle ---

type pair struct {
	a sync.Mutex
	b sync.Mutex
}

// lockAB nests b inside a; lockBA nests a inside b. Each nesting is
// fine alone — together they deadlock, and the cycle is reported once
// at the first edge's witness site.
func (p *pair) lockAB() {
	p.a.Lock()
	p.b.Lock() // want "lock-order cycle among \\{lockorder\\.pair\\.a, lockorder\\.pair\\.b\\}"
	p.b.Unlock()
	p.a.Unlock()
}

func (p *pair) lockBA() {
	p.b.Lock()
	p.a.Lock()
	p.a.Unlock()
	p.b.Unlock()
}

// sequential acquisition is not nesting: no edge, no cycle.
func (p *pair) sequential() {
	p.a.Lock()
	p.a.Unlock()
	p.b.Lock()
	p.b.Unlock()
}

// --- cycle composed across two functions through calls ---

type gate struct {
	mu sync.Mutex
	n  int
}

type registry struct {
	mu    sync.Mutex
	gates []*gate
}

func (g *gate) wait() {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
}

func (r *registry) size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.gates)
}

// add acquires gate.mu through wait() while holding registry.mu;
// drain acquires registry.mu through size() while holding gate.mu.
// Neither function acquires both locks textually — the cycle only
// exists through summary composition.
func (r *registry) add(g *gate) {
	r.mu.Lock()
	g.wait()
	r.mu.Unlock()
}

func (g *gate) drain(r *registry) {
	g.mu.Lock()
	_ = r.size() // want "lock-order cycle among \\{lockorder\\.gate\\.mu, lockorder\\.registry\\.mu\\}"
	g.mu.Unlock()
}

// --- same-mutex nesting self-deadlocks ---

type cache struct {
	mu sync.Mutex
	m  map[int]int
}

func (c *cache) getLocked(k int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mu.Lock() // want "acquires lockorder\\.cache\\.mu while already holding it"
	v := c.m[k]
	c.mu.Unlock()
	return v
}

func (c *cache) sizeLocked() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

func (c *cache) snapshot() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sizeLocked() // want "may acquire lockorder\\.cache\\.mu, which is already held"
}

// release-then-reacquire is not nesting.
func (c *cache) reacquire() {
	c.mu.Lock()
	c.mu.Unlock()
	c.mu.Lock()
	c.mu.Unlock()
}

// --- TryLock never blocks, so it never closes a cycle ---

type opt struct {
	mu  sync.Mutex
	aux sync.Mutex
}

// tryNested nests aux inside mu via TryLock: a try-acquire cannot be
// the waiting side of a deadlock, so no mu→aux edge is recorded and
// inverse's aux→mu nesting stays acyclic.
func (o *opt) tryNested() {
	o.mu.Lock()
	if o.aux.TryLock() {
		o.aux.Unlock()
	}
	o.mu.Unlock()
}

func (o *opt) inverse() {
	o.aux.Lock()
	o.mu.Lock()
	o.mu.Unlock()
	o.aux.Unlock()
}

// --- ignore mechanics: module diagnostics honor //schedlint:ignore ---

type suppressed struct {
	x sync.Mutex
	y sync.Mutex
}

func (s *suppressed) xy() {
	s.x.Lock()
	//schedlint:ignore lockorder bootstrap-only path: both orders run before any goroutine starts
	s.y.Lock()
	s.y.Unlock()
	s.x.Unlock()
}

func (s *suppressed) yx() {
	s.y.Lock()
	s.x.Lock()
	s.x.Unlock()
	s.y.Unlock()
}
