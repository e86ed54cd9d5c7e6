// Package hotalloc is the golden corpus for the hotalloc analyzer:
// every run-time allocation escape analysis cannot report that it must
// flag inside a //sched:hotpath function, and the constructs it must
// accept — scratch-backed appends, and the heap escapes that
// cmd/escapegate gates with the compiler's own verdict.
package hotalloc

type scratch struct {
	buf []int
	m   map[int]int
}

type tool struct{}

func (tool) work() int { return 0 }

func sink(v any) { _ = v }

//sched:hotpath
func hotMakeMap(n int) map[int]int {
	return make(map[int]int, n) // want "make\\(map\\) in hot path allocates"
}

//sched:hotpath
func hotMapLit() map[int]int {
	return map[int]int{1: 2} // want "map literal in hot path allocates"
}

//sched:hotpath
func hotGo() {
	go hotDefer() // want "go statement in hot path"
}

//sched:hotpath
func hotDefer() {
	defer hotGo() // want "defer in hot path"
}

//sched:hotpath
func hotAppendFresh(n int) []int {
	var s []int
	for i := 0; i < n; i++ {
		s = append(s, i) // want "append grows a non-scratch slice"
	}
	return s
}

//sched:hotpath
func hotAppendFreshField(n int) int {
	var tmp struct{ s []int }
	for i := 0; i < n; i++ {
		tmp.s = append(tmp.s, i) // want "append grows a non-scratch slice"
	}
	return len(tmp.s)
}

var pkgSlice []int

var pkgScratch scratch

//sched:hotpath
func hotAppendPackage(n int) {
	for i := 0; i < n; i++ {
		pkgSlice = append(pkgSlice, i)             // want "append grows a non-scratch slice"
		pkgScratch.buf = append(pkgScratch.buf, i) // want "append grows a non-scratch slice"
	}
}

//sched:hotpath
func hotStringConv(s string) []byte {
	return []byte(s) // want "string/slice conversion in hot path allocates"
}

//sched:hotpath
func hotRuneConv(r []rune) string {
	return string(r) // want "string/slice conversion in hot path allocates"
}

// Accepted patterns: scratch-backed appends.

//sched:hotpath
func (sc *scratch) okFieldAppend(n int) {
	sc.buf = sc.buf[:0]
	for i := 0; i < n; i++ {
		sc.buf = append(sc.buf, i)
	}
}

//sched:hotpath
func okParamAppend(dst []int, v int) []int {
	return append(dst, v)
}

//sched:hotpath
func (sc *scratch) okFieldChainAppend(n int) {
	p := &sc.buf
	*p = append(*p, n)
	s := sc
	s.buf = append(s.buf, n)
}

//sched:hotpath
func okDerivedAppend(dst []int) []int {
	tmp := dst[:0]
	tmp = append(tmp, 1)
	return tmp
}

// Heap escapes are cmd/escapegate's: each construct below allocates
// only if the compiler moves it to the heap, which the escape snapshot
// gates by reason string. hotalloc accepts them all.

//sched:hotpath
func okMakeSlice(n int) []int {
	return make([]int, n)
}

//sched:hotpath
func okMakeChan() chan int {
	return make(chan int, 1)
}

//sched:hotpath
func okNew() *scratch {
	return new(scratch)
}

//sched:hotpath
func okSliceLit() []int {
	return []int{1, 2}
}

//sched:hotpath
func okAddrLit() *scratch {
	return &scratch{}
}

//sched:hotpath
func okClosure(n int) func() int {
	return func() int { return n }
}

//sched:hotpath
func okMethodValue(t tool) func() int {
	return t.work
}

//sched:hotpath
func okBoxConv(n int) any {
	return any(n)
}

//sched:hotpath
func okBoxArg(n int) {
	sink(n)
}

//sched:hotpath
func okBoxAssign(n int) any {
	var v any
	v = n
	return v
}

//sched:hotpath
func okBoxDecl(n int) any {
	var v any = n
	return v
}

//sched:hotpath
func okBoxReturn(n int) any {
	return n
}

// Unmarked: the flagged constructs are fine in cold code.
func coldEverything(n int) []int {
	m := map[int]int{n: n}
	s := []int{}
	s = append(s, m[n])
	return s
}
