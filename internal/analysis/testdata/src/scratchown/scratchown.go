// Package scratchown is the golden corpus for the scratchown analyzer:
// every way a scratch-derived value may escape (return, store, send,
// closure capture, publishing callee), the Clone/owns-result outs, and
// the scratch-plumbing patterns that must stay clean.
package scratchown

// Scratch is the corpus stand-in for the repo's arena-backed scratch
// spaces (any named type containing "Scratch" is scratch-typed).
type Scratch struct {
	buf []int
}

// Result is a retentive non-scratch aggregate (holds a slice).
type Result struct {
	Data []int
}

// Clone returns freshly owned storage (the laundering method).
func (r *Result) Clone() *Result {
	out := &Result{Data: make([]int, len(r.Data))}
	copy(out.Data, r.Data)
	return out
}

func use(v []int) { _ = v }

// --- returns ---

func view(sc *Scratch) []int {
	return sc.buf // want "returning a scratch-derived value"
}

//sched:owns-result
func viewOwned(sc *Scratch) []int {
	return sc.buf
}

// A directive on a function that never returns scratch storage is
// itself stale (the directive-on-cold-code case).
//
//sched:owns-result
func coldOwned() int { // want "never returns a scratch-derived value"
	return 1
}

//sched:owns-result
func build(sc *Scratch) *Result {
	return &Result{Data: sc.buf}
}

// Clone kills the taint: the boundary pattern the service uses.
func cloned(sc *Scratch) *Result {
	r := build(sc)
	r = r.Clone()
	return r
}

func notCloned(sc *Scratch) *Result {
	r := build(sc)
	return r // want "returning a scratch-derived value"
}

// --- stores ---

type cache struct {
	last []int
}

func (c *cache) remember(sc *Scratch) {
	c.last = sc.buf // want "stored outside its scratch"
}

// A store into a local only taints the local; the escape is the
// return.
func viaLocal(sc *Scratch) Result {
	var out Result
	out.Data = sc.buf
	return out // want "returning a scratch-derived value"
}

// Publishing through an out-parameter is covered by the directive too.
//
//sched:owns-result
func fillOwned(sc *Scratch, out *Result) {
	out.Data = sc.buf
}

// --- channels and closures ---

func send(sc *Scratch, ch chan []int) {
	ch <- sc.buf // want "sent on a channel"
}

func capture(sc *Scratch, done chan struct{}) {
	v := sc.buf
	go func() {
		use(v) // want "escaping closure captures scratch-derived"
		close(done)
	}()
}

// --- same-package escape summaries ---

type registry struct {
	m map[int][]int
}

func (g *registry) put(k int, v []int) {
	g.m[k] = v
}

func publish(sc *Scratch, g *registry) {
	g.put(1, sc.buf) // want "escapes through put"
}

func fill(dst *Result, v []int) {
	dst.Data = v
}

func viaParam(sc *Scratch, out *Result) {
	fill(out, sc.buf) // want "escapes through fill"
}

func publishCloned(sc *Scratch, g *registry) {
	r := build(sc)
	r = r.Clone()
	g.put(1, r.Data)
}

// --- scratch plumbing stays clean ---

// NewScratch returns the scratch itself: ownership transfer.
func NewScratch() *Scratch {
	return &Scratch{}
}

type holder struct {
	sc *Scratch
}

// adopt stores a scratch into a scratch-typed slot: pooling, not a
// leak.
func (h *holder) adopt(sc *Scratch) {
	h.sc = sc
}

// --- package-level variables publish ---

var sink []int

func toGlobal(sc *Scratch) {
	sink = sc.buf // want "stored outside its scratch"
}

func toGlobalViaLocal(sc *Scratch) {
	v := sc.buf
	sink = v // want "stored outside its scratch"
}

func keep(v []int) {
	sink = v
}

func toGlobalViaCall(sc *Scratch) {
	keep(sc.buf) // want "escapes through keep, which publishes this parameter"
}

// --- every path counts ---

type box struct {
	v []int
}

// A clear on one branch leaves the other path scratch-derived.
func branchClear(sc *Scratch, b *box, c bool) {
	v := sc.buf
	if c {
		v = make([]int, 1)
	}
	b.v = v // want "stored outside its scratch"
}

// A value derived late in one iteration is stored in the next.
func loopCarried(sc *Scratch, b *box, n int) {
	var v []int
	for i := 0; i < n; i++ {
		b.v = v // want "stored outside its scratch"
		v = sc.buf
	}
}

// The nil path holds no storage, so cloning the other one suffices.
func cloneIfSet(sc *Scratch, g *registry) {
	r := build(sc)
	if r != nil {
		r = r.Clone()
	}
	g.put(1, r.Data)
}

// --- immediately invoked literals run in their caller's frame ---

// A store inside the literal is the caller's store.
func literalStore(sc *Scratch, b *box) {
	v := sc.buf
	func() {
		b.v = v // want "stored outside its scratch"
	}()
}

// A parameter takes its argument's roots.
func literalParam(sc *Scratch, b *box) {
	func(x []int) {
		b.v = x // want "stored outside its scratch"
	}(sc.buf)
}

// A literal that only reads scratch storage publishes nothing.
func literalRead(sc *Scratch) int {
	v := sc.buf
	n := 0
	func() {
		for _, x := range v {
			n += x
		}
	}()
	return n
}
