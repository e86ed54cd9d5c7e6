package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// LockOrder builds the whole-repo lock-ordering graph and rejects
// cycles. Deadlock by inconsistent nesting is invisible to -race and
// to any per-package check: thread A holds a client's state lock and
// wants its write lock while thread B holds the write lock and wants
// the state lock, and the two acquisitions can live in different
// functions — or different packages — composed only at run time. This
// analyzer makes the ordering a build-time artifact:
//
//   - Every sync.Mutex that is a struct field or a package-level
//     variable gets a stable node key (pkg.Type.field),
//     the same identity the //sched:guardedby annotations name.
//   - Per function scope, the CFG lock-state dataflow (cfg.go) tracks
//     what is held; acquiring B while holding A adds the edge A → B.
//   - Calls compose: a summary fixpoint (cfg.go's fixpoint, shared with
//     scratchown's escape summaries) computes the may-acquire set of
//     every function in the module, so holding A while calling a
//     function that (transitively) acquires B also adds A → B, across
//     package boundaries.
//   - Re-acquiring a lock that is already held — directly, or by a
//     call whose summary reaches the held lock — is reported as a
//     self-deadlock.
//   - Any cycle in the resulting graph is reported once, naming every
//     edge with the site where the nested acquisition happens.
//
// TryLock acquisitions never block, so they cannot be the
// waiting side of a deadlock: they hold the mutex on their success
// edge (and may be edge sources) but are never edge targets. Deferred
// calls and function literals run under unknowable held sets and are
// composed into summaries but not used as edge sites.
var LockOrder = &Analyzer{
	Name:      "lockorder",
	Doc:       "whole-repo lock-ordering graph of sync.Mutex Lock sites must be acyclic; no same-mutex nested acquisition",
	RunModule: runLockOrder,
}

// loEdge is one lock-ordering edge with its witness site: the place
// where `to` is acquired (directly or through a call) while `from` is
// held.
type loEdge struct {
	from, to string
	pos      token.Position
	viaCall  string // non-empty when the edge goes through a callee
}

// loSummary is one function's may-acquire set (transitive).
type loSummary struct {
	acquires map[string]token.Position
	calls    map[string]token.Pos // callee key → first call site
}

type lockOrderState struct {
	pkgs  []*Package
	keys  map[types.Object]string // mutex field/var object → node key
	sums  map[string]*loSummary   // function summary key → summary
	edges map[string]*loEdge      // "from\x00to" → first witness
	mp    *ModulePass
}

func runLockOrder(mp *ModulePass) error {
	st := &lockOrderState{
		keys:  map[types.Object]string{},
		sums:  map[string]*loSummary{},
		edges: map[string]*loEdge{},
		pkgs:  mp.Pkgs,
		mp:    mp,
	}
	for _, pkg := range mp.Pkgs {
		st.collectKeys(pkg)
	}
	for _, pkg := range mp.Pkgs {
		st.collectSummaries(pkg)
	}
	st.closeSummaries()
	for _, pkg := range mp.Pkgs {
		st.flowPackage(pkg)
	}
	st.reportCycles()
	return nil
}

// collectKeys assigns every struct-field and package-level mutex its
// graph node key.
func (st *lockOrderState) collectKeys(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					ast.Inspect(sp.Type, func(n ast.Node) bool {
						stype, ok := n.(*ast.StructType)
						if !ok {
							return true
						}
						for _, field := range stype.Fields.List {
							if !isNamed(pkg.Info.TypeOf(field.Type), "sync", "Mutex") {
								continue
							}
							for _, id := range field.Names {
								if obj := pkg.Info.Defs[id]; obj != nil {
									st.keys[obj] = pkg.Name + "." + sp.Name.Name + "." + id.Name
								}
							}
						}
						return true
					})
				case *ast.ValueSpec:
					for _, id := range sp.Names {
						obj := pkg.Info.Defs[id]
						if obj != nil && isNamed(obj.Type(), "sync", "Mutex") {
							st.keys[obj] = pkg.Name + "." + id.Name
						}
					}
				}
			}
		}
	}
}

// mutexKey resolves the receiver expression of a Lock/Unlock call to
// its graph node key ("" for locals and unresolvable expressions).
func (st *lockOrderState) mutexKey(pkg *Package, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if obj := pkg.Info.Uses[e.Sel]; obj != nil {
			return st.keys[obj]
		}
	case *ast.Ident:
		if obj := pkg.Info.Uses[e]; obj != nil {
			return st.keys[obj]
		}
	}
	return ""
}

// loFuncKey is the stable cross-package identity of a function:
// path.Func or path.(Recv).Method — resolvable identically from the
// defining package and from export data at call sites.
func loFuncKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return ""
		}
		return fn.Pkg().Path() + ".(" + named.Obj().Name() + ")." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// reader returns a lock-event reader keyed by module-wide mutex
// identity.
func (st *lockOrderState) reader(pkg *Package) *lockReader {
	return newLockReader(pkg.Info, func(e ast.Expr) string { return st.mutexKey(pkg, e) })
}

// collectSummaries records every FuncDecl's direct blocking
// acquisitions and outgoing calls, deferred ones included (function
// literals are excluded: they run under their caller-of-the-value's
// held set, which is unknowable here).
func (st *lockOrderState) collectSummaries(pkg *Package) {
	r := st.reader(pkg)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fnObj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			key := loFuncKey(fnObj)
			if key == "" {
				continue
			}
			sum := &loSummary{acquires: map[string]token.Position{}, calls: map[string]token.Pos{}}
			for _, ev := range r.events(fd.Body) {
				switch {
				case ev.kind == lockAcquire && !ev.try:
					if _, seen := sum.acquires[ev.key]; !seen {
						sum.acquires[ev.key] = pkg.Fset.Position(ev.pos)
					}
				case ev.kind == lockCall:
					if ck := loFuncKey(ev.fn); ck != "" {
						if _, seen := sum.calls[ck]; !seen {
							sum.calls[ck] = ev.pos
						}
					}
				}
			}
			st.sums[key] = sum
		}
	}
}

// closeSummaries closes the summaries transitively: f may acquire
// whatever its callees may acquire.
func (st *lockOrderState) closeSummaries() {
	fixpoint(func() bool {
		changed := false
		for _, sum := range st.sums {
			for callee := range sum.calls {
				cs, ok := st.sums[callee]
				if !ok {
					continue
				}
				for k, pos := range cs.acquires {
					if _, seen := sum.acquires[k]; !seen {
						sum.acquires[k] = pos
						changed = true
					}
				}
			}
		}
		return changed
	})
}

// flowPackage runs the held-lock dataflow over every scope of a
// package and records ordering edges and self-deadlocks. Functions
// with no direct acquisition (try or blocking) are skipped: with
// nothing ever held, no edge and no diagnostic can arise, and most
// functions fall in this class.
func (st *lockOrderState) flowPackage(pkg *Package) {
	r := st.reader(pkg)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirectAcquire(pkg, fd.Body) {
				continue
			}
			for _, scope := range funcScopes(fd.Body) {
				st.flowScope(r, pkg, scope)
			}
		}
	}
}

// hasDirectAcquire reports whether body contains any mutex acquisition
// call (Lock/TryLock on a sync.Mutex receiver),
// including inside function literals.
func hasDirectAcquire(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if m, isLock := lockMethods[sel.Sel.Name]; isLock && m.kind == lockAcquire && isNamed(pkg.Info.TypeOf(sel.X), "sync", "Mutex") {
			found = true
			return false
		}
		return true
	})
	return found
}

// flowScope runs the held-lock dataflow over one scope and, on the
// replay, records ordering edges and self-deadlocks. Deferred calls run
// under the exit-time held set, not this node's, so they are no edge
// sites.
func (st *lockOrderState) flowScope(r *lockReader, pkg *Package, scope *ast.BlockStmt) {
	f := lockFlow(r, func(ev lockEvent, held heldLocks) {
		switch {
		case ev.kind == lockAcquire:
			st.recordAcquire(pkg, held, ev)
		case ev.kind == lockCall && !ev.deferred:
			st.recordCall(pkg, held, ev)
		}
	})
	g := cfgOf(pkg, scope)
	replay(g, f, forward(g, f, heldLocks{}))
}

// recordAcquire handles a direct acquisition under a non-empty held
// set: a self-deadlock when the same mutex is already held, an
// ordering edge per other held mutex otherwise.
func (st *lockOrderState) recordAcquire(pkg *Package, held heldLocks, ev lockEvent) {
	pos := pkg.Fset.Position(ev.pos)
	if prev, ok := held[ev.key]; ok {
		st.mp.Report(pos, "acquires %s while already holding it (acquired at %s): same-mutex nesting self-deadlocks",
			ev.key, shortPos(pkg.Fset.Position(prev)))
		return
	}
	if ev.try {
		return // a try-acquire never blocks: it cannot close a cycle
	}
	for from := range held {
		st.addEdge(from, ev.key, pos, "")
	}
}

// recordCall composes a callee's may-acquire summary into the caller's
// held set.
func (st *lockOrderState) recordCall(pkg *Package, held heldLocks, ev lockEvent) {
	if len(held) == 0 {
		return
	}
	fn := loFuncKey(ev.fn)
	sum, ok := st.sums[fn]
	if !ok {
		return
	}
	pos := pkg.Fset.Position(ev.pos)
	for acq := range sum.acquires {
		if _, same := held[acq]; same {
			st.mp.Report(pos, "call to %s may acquire %s, which is already held here: same-mutex nesting through a call self-deadlocks",
				fn, acq)
			continue
		}
		for from := range held {
			st.addEdge(from, acq, pos, fn)
		}
	}
}

func (st *lockOrderState) addEdge(from, to string, pos token.Position, via string) {
	if from == to {
		return
	}
	id := from + "\x00" + to
	if _, ok := st.edges[id]; !ok {
		st.edges[id] = &loEdge{from: from, to: to, pos: pos, viaCall: via}
	}
}

// reportCycles finds strongly connected components of the ordering
// graph and reports each cycle once, naming every edge's witness site.
func (st *lockOrderState) reportCycles() {
	adj := map[string][]string{}
	nodes := map[string]bool{}
	for _, e := range st.edges {
		adj[e.from] = append(adj[e.from], e.to)
		nodes[e.from], nodes[e.to] = true, true
	}
	for _, succs := range adj {
		sort.Strings(succs)
	}
	sccs := tarjanSCC(nodes, adj)
	for _, scc := range sccs {
		if len(scc) < 2 {
			continue
		}
		sort.Strings(scc)
		inSCC := map[string]bool{}
		for _, n := range scc {
			inSCC[n] = true
		}
		var parts []string
		var first *loEdge
		var cycleEdges []*loEdge
		for _, from := range scc {
			for _, to := range scc {
				if e, ok := st.edges[from+"\x00"+to]; ok {
					cycleEdges = append(cycleEdges, e)
					if first == nil {
						first = e
					}
				}
			}
		}
		for _, e := range cycleEdges {
			via := ""
			if e.viaCall != "" {
				via = " via " + e.viaCall
			}
			parts = append(parts, fmt.Sprintf("%s → %s (%s%s)", e.from, e.to, shortPos(e.pos), via))
		}
		st.mp.Report(first.pos, "lock-order cycle among {%s}: %s; pick one acquisition order and use it everywhere",
			strings.Join(scc, ", "), strings.Join(parts, ", "))
	}
}

func shortPos(p token.Position) string {
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// tarjanSCC computes strongly connected components (iterative Tarjan,
// deterministic order).
func tarjanSCC(nodes map[string]bool, adj map[string][]string) [][]string {
	sorted := make([]string, 0, len(nodes))
	for n := range nodes {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, v := range sorted {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return sccs
}
