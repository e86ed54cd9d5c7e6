// Package lockorder is the golden corpus for the lockorder analyzer:
// nested blocking acquisition (direct, through a call, of the same
// mutex, of local mutexes, and under a TryLock's success edge), the
// non-nesting shapes that stay clean, and ignore mechanics for
// module-level diagnostics.
package lockorder

import "sync"

// --- direct nesting ---

type pair struct {
	a sync.Mutex
	b sync.Mutex
}

// lockAB nests b inside a: one order alone is already a diagnostic,
// because another path may nest them the other way.
func (p *pair) lockAB() {
	p.a.Lock()
	p.b.Lock() // want "Lock of p\\.b while holding p\\.a \\(acquired at lockorder\\.go:20\\)"
	p.b.Unlock()
	p.a.Unlock()
}

// sequential acquisition is not nesting.
func (p *pair) sequential() {
	p.a.Lock()
	p.a.Unlock()
	p.b.Lock()
	p.b.Unlock()
}

// --- nesting through a same-package call ---

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

// add acquires gate.mu through wait() while holding registry.mu: no
// Lock is textually nested, the summary composes it.
func (r *registry) add(g *gate) {
	r.mu.Lock()
	g.wait() // want "call to corpus/internal/lockorder\\.\\(gate\\)\\.wait may acquire a mutex \\(at lockorder\\.go:47\\) while holding r\\.mu"
	r.mu.Unlock()
}

// drain calls wait only after releasing its own lock.
func (r *registry) drain(g *gate) {
	r.mu.Lock()
	n := len(r.gates)
	r.mu.Unlock()
	if n > 0 {
		g.wait()
	}
}

// --- same-mutex re-acquisition self-deadlocks ---

type cache struct {
	mu sync.Mutex
	m  map[int]int
}

func (c *cache) getLocked(k int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mu.Lock() // want "Lock of c\\.mu while holding c\\.mu"
	v := c.m[k]
	c.mu.Unlock()
	return v
}

func (c *cache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

func (c *cache) snapshot() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size() // want "call to corpus/internal/lockorder\\.\\(cache\\)\\.size may acquire a mutex \\(at lockorder\\.go:87\\) while holding c\\.mu"
}

// release-then-reacquire is not nesting.
func (c *cache) reacquire() {
	c.mu.Lock()
	c.mu.Unlock()
	c.mu.Lock()
	c.mu.Unlock()
}

// A deferred call runs at scope exit, here after the Unlock, so it is
// no flag site.
func (c *cache) flush() {
	c.mu.Lock()
	defer c.size()
	c.mu.Unlock()
}

// --- TryLock never blocks ---

type opt struct {
	mu  sync.Mutex
	aux sync.Mutex
}

// tryNested takes aux by TryLock under mu: a try-acquire cannot be the
// waiting side of a deadlock.
func (o *opt) tryNested() {
	o.mu.Lock()
	if o.aux.TryLock() {
		o.aux.Unlock()
	}
	o.mu.Unlock()
}

// tryThenLock holds aux on TryLock's success edge, so the Lock of mu
// there nests.
func (o *opt) tryThenLock() {
	if !o.aux.TryLock() {
		return
	}
	o.mu.Lock() // want "Lock of o\\.mu while holding o\\.aux"
	o.mu.Unlock()
	o.aux.Unlock()
}

// --- local mutexes nest like any other ---

func locals() {
	var x, y sync.Mutex
	x.Lock()
	y.Lock() // want "Lock of y while holding x"
	y.Unlock()
	x.Unlock()
}

// --- a summary with two acquiring callees names the least site ---

// visit may acquire at lockorder.go:87 (size) and :47 (wait); its
// summary names :47 whichever callee the fixpoint reaches first.
func visit(c *cache, g *gate) {
	_ = c.size()
	g.wait()
}

func (r *registry) visitLocked(c *cache, g *gate) {
	r.mu.Lock()
	visit(c, g) // want "call to corpus/internal/lockorder\\.visit may acquire a mutex \\(at lockorder\\.go:47\\) while holding r\\.mu"
	r.mu.Unlock()
}

// --- ignore mechanics: module diagnostics honor //schedlint:ignore ---

type suppressed struct {
	x sync.Mutex
	y sync.Mutex
}

func (s *suppressed) xy() {
	s.x.Lock()
	//schedlint:ignore lockorder bootstrap-only path: runs before any goroutine starts
	s.y.Lock()
	s.y.Unlock()
	s.x.Unlock()
}
