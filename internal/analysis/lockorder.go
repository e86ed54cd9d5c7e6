package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// LockOrder bans nested locking: no blocking Lock while any sync.Mutex
// is held in the scope, directly or through a call that may acquire a
// mutex. Deadlock by inconsistent nesting is invisible to -race and to
// any per-package check: thread A holds a client's state lock and
// wants its write lock while thread B holds the write lock and wants
// the state lock, and the two acquisitions can live in different
// functions, or different packages, composed only at run time. Ordering
// every nesting is a whole-module graph the module does not need: no
// production path nests two mutexes, so the rule is that none does.
//
//   - Per function scope, the CFG lock-state dataflow (cfg.go) tracks
//     what is held; a blocking Lock under a non-empty held set is a
//     diagnostic. Re-acquiring the held mutex itself (a self-deadlock)
//     is one case of it.
//   - Calls compose: a summary fixpoint (cfg.go's fixpoint, shared with
//     scratchown's escape summaries) records whether each function in
//     the module may acquire a mutex, transitively and across package
//     boundaries, so holding a mutex while calling one that does is a
//     diagnostic at the call.
//
// TryLock never blocks, so it cannot be the waiting side of a deadlock
// and is never flagged: it holds the mutex on its success edge, where a
// later Lock is nesting like any other. Deferred calls and function
// literals run under unknowable held sets; they are composed into
// summaries but are not flag sites.
var LockOrder = &Analyzer{
	Name:      "lockorder",
	Doc:       "no blocking sync.Mutex Lock while a mutex is held in the scope, directly or through a call that may acquire one",
	RunModule: runLockOrder,
}

// loSummary is one function's may-acquire summary.
type loSummary struct {
	acquire string          // first direct blocking acquisition site, else the least callee's; "" for none
	calls   map[string]bool // callee keys, kept only without a direct acquisition
}

type lockOrderState struct {
	sums map[string]*loSummary // function summary key → summary
	mp   *ModulePass
}

func runLockOrder(mp *ModulePass) error {
	st := &lockOrderState{sums: map[string]*loSummary{}, mp: mp}
	for _, pkg := range mp.Pkgs {
		st.collectSummaries(pkg)
	}
	st.closeSummaries()
	for _, pkg := range mp.Pkgs {
		st.flowPackage(pkg)
	}
	return nil
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

// collectSummaries records every FuncDecl's first direct blocking
// acquisition and its outgoing calls, deferred ones included (function
// literals are excluded: they run under their caller-of-the-value's
// held set, which is unknowable here).
func (st *lockOrderState) collectSummaries(pkg *Package) {
	r := newLockReader(pkg.Info)
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
			sum := &loSummary{calls: map[string]bool{}}
			for _, ev := range r.events(fd.Body) {
				switch {
				case ev.kind == lockAcquire && !ev.try && sum.acquire == "":
					sum.acquire = shortPos(pkg.Fset.Position(ev.pos))
				case ev.kind == lockCall:
					if ck := loFuncKey(ev.fn); ck != "" {
						sum.calls[ck] = true
					}
				}
			}
			if sum.acquire != "" {
				sum.calls = nil
			}
			st.sums[key] = sum
		}
	}
}

// closeSummaries closes the summaries transitively: f may acquire a
// mutex if any of its callees may. A site only ever moves to a lesser
// one, so the result, and each diagnostic's text, is the same whatever
// order the map is walked in.
func (st *lockOrderState) closeSummaries() {
	fixpoint(func() bool {
		changed := false
		for _, sum := range st.sums {
			for callee := range sum.calls {
				if cs, ok := st.sums[callee]; ok && cs.acquire != "" && (sum.acquire == "" || cs.acquire < sum.acquire) {
					sum.acquire = cs.acquire
					changed = true
				}
			}
		}
		return changed
	})
}

// flowPackage runs the held-lock dataflow over every scope of a
// package and reports nested acquisitions. Functions with no direct
// acquisition (try or blocking) are skipped: with nothing ever held,
// no diagnostic can arise, and most functions fall in this class.
func (st *lockOrderState) flowPackage(pkg *Package) {
	r := newLockReader(pkg.Info)
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
// replay, reports every blocking acquisition and every call that may
// acquire while a mutex is held. Deferred calls run under the exit-time
// held set, not this node's, so they are no flag sites.
func (st *lockOrderState) flowScope(r *lockReader, pkg *Package, scope *ast.BlockStmt) {
	f := lockFlow(r, func(ev lockEvent, held heldLocks) {
		if len(held) == 0 || ev.deferred {
			return
		}
		mu, at := firstHeld(held)
		switch {
		case ev.kind == lockAcquire && !ev.try:
			st.mp.Report(pkg.Fset.Position(ev.pos), "Lock of %s while holding %s (acquired at %s): no nested locking",
				ev.key, mu, shortPos(pkg.Fset.Position(at)))
		case ev.kind == lockCall:
			fn := loFuncKey(ev.fn)
			if sum, ok := st.sums[fn]; ok && sum.acquire != "" {
				st.mp.Report(pkg.Fset.Position(ev.pos), "call to %s may acquire a mutex (at %s) while holding %s: no nested locking",
					fn, sum.acquire, mu)
			}
		}
	})
	g := cfgOf(pkg, scope)
	replay(g, f, forward(g, f, heldLocks{}))
}

// firstHeld returns the held mutex acquired earliest in the source, so
// that a diagnostic names the same one on every run.
func firstHeld(held heldLocks) (key string, at token.Pos) {
	for k, p := range held {
		if key == "" || p < at || p == at && k < key {
			key, at = k, p
		}
	}
	return key, at
}

func shortPos(p token.Position) string {
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
