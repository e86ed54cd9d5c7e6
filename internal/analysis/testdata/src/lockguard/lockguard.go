// Package lockguard is the golden corpus for the lockguard analyzer:
// reads and writes of //sched:guardedby fields in and out of their
// mutex's critical section, the sync.RWMutex ban, the fresh-local
// constructor exemption, closures as separate scopes, fields of
// generic structs, and directive validation.
package lockguard

import "sync"

type counter struct {
	mu sync.Mutex
	n  int //sched:guardedby mu
}

func (c *counter) locked() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *counter) pairLocked() int {
	c.mu.Lock()
	v := c.n
	c.mu.Unlock()
	return v
}

func (c *counter) unlockedRead() int {
	return c.n // want "access to c.n without holding c.mu"
}

func (c *counter) unlockedWrite() {
	c.n++ // want "access to c.n without holding c.mu"
}

func (c *counter) afterUnlock() int {
	c.mu.Lock()
	c.n = 1
	c.mu.Unlock()
	return c.n // want "access to c.n without holding c.mu"
}

// newCounter touches the field through a provably fresh local: storage
// not yet shared needs no lock.
func newCounter() *counter {
	c := &counter{}
	c.n = 1
	return c
}

// A closure is its own scope: holding the lock at creation time does
// not license the closure's later accesses.
func (c *counter) closureEscapes() func() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return func() int { return c.n } // want "access to c.n without holding c.mu"
}

func (c *counter) closureLocksItself() func() int {
	return func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.n
	}
}

type table struct {
	mu sync.Mutex
	m  map[int]int //sched:guardedby mu
}

func (t *table) write(k, v int) {
	t.mu.Lock()
	t.m[k] = v
	t.mu.Unlock()
}

// writeThroughIndex mutates the guarded map without the lock.
func (t *table) writeThroughIndex(k int) {
	t.m[k] = 1 // want "access to t.m without holding t.mu"
}

// --- the sync.RWMutex ban: every use of the type, field or variable ---

type rwTable struct {
	mu sync.RWMutex // want "sync.RWMutex: the lock analyzers model sync.Mutex only; use sync.Mutex"
	m  map[int]int  //sched:guardedby mu // want "not a sync.Mutex field"
}

var rwGlobal sync.RWMutex // want "sync.RWMutex: the lock analyzers model sync.Mutex only"

func newRW() *sync.RWMutex { // want "sync.RWMutex: the lock analyzers model sync.Mutex only"
	return &sync.RWMutex{} // want "sync.RWMutex: the lock analyzers model sync.Mutex only"
}

// --- CFG precision: branch-dependent unlocks, TryLock, defer-in-loop ---

// branchUnlock releases on the error path only; the fall-through
// access is still covered (the old position-ordered replay could not
// tell the two paths apart).
func (c *counter) branchUnlock(fail bool) int {
	c.mu.Lock()
	if fail {
		c.mu.Unlock()
		return -1
	}
	v := c.n
	c.mu.Unlock()
	return v
}

// mergeUnlocked: one path releases before the merge point, so the
// access after the join is not protected on every path.
func (c *counter) mergeUnlocked(fail bool) int {
	c.mu.Lock()
	if fail {
		c.mu.Unlock()
	}
	v := c.n // want "access to c.n without holding c.mu"
	if !fail {
		c.mu.Unlock()
	}
	return v
}

// tryLock holds the mutex exactly on the TryLock success edge.
func (c *counter) tryLock() int {
	if !c.mu.TryLock() {
		return -1
	}
	v := c.n
	c.mu.Unlock()
	return v
}

func (c *counter) tryLockFailurePath() int {
	if c.mu.TryLock() {
		c.mu.Unlock()
	}
	return c.n // want "access to c.n without holding c.mu"
}

// deferInLoop: a defer registered inside a loop still runs at function
// exit, so the lock stays held for the rest of the scope.
func (c *counter) deferInLoop(keys []int) int {
	total := 0
	for range keys {
		c.mu.Lock()
		defer c.mu.Unlock()
		total += c.n
	}
	return total
}

// loopLocal: acquisition and release balanced inside one iteration —
// held at the access, not held across the back edge.
func (c *counter) loopLocal(rounds int) int {
	total := 0
	for i := 0; i < rounds; i++ {
		c.mu.Lock()
		total += c.n
		c.mu.Unlock()
	}
	total += c.n // want "access to c.n without holding c.mu"
	return total
}

// --- generic structs: a field reached through an instance is the
// declared field ---

type gtable[V any] struct {
	mu sync.Mutex
	m  map[int]V //sched:guardedby mu
}

func (t *gtable[V]) get(k int) V {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[k]
}

func (t *gtable[V]) size() int {
	return len(t.m) // want "access to t.m without holding t.mu"
}

func sizeOf(t *gtable[string]) int {
	return len(t.m) // want "access to t.m without holding t.mu"
}

// --- directive validation ---

type badGuard struct {
	x int //sched:guardedby nope // want "not a sync.Mutex field"
}

type notAMutex struct {
	guard int
	y     int //sched:guardedby guard // want "not a sync.Mutex field"
}

type embeddedGuarded struct {
	mu        sync.Mutex
	sync.Once //sched:guardedby mu // want "embedded field is not supported"
}
