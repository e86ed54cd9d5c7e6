package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockGuard enforces checklocks-style annotations on mutex-guarded
// struct fields. A field annotated
//
//	//sched:guardedby mu
//
// (doc comment or trailing comment) may only be read or written while
// mu — a sync.Mutex field of the same struct — is held. The serving
// path's shared state (the result cache, online sessions, the
// known-instance table, the server's connection set, the daemon's
// response writer) is guarded by convention today; -race only catches
// the schedules the tests happen to race.
//
// The check is a per-scope CFG dataflow (cfg.go): within one function
// body (each function literal is its own scope — a closure that
// touches guarded state must lock for itself), the held-lock set is
// propagated over basic blocks to a fixpoint, joining by intersection
// at merges, so branch-dependent unlocks (`if err != nil { mu.Unlock();
// return }`) and loops are modeled precisely instead of by source
// position. A branch on mu.TryLock() holds the lock exactly on the
// success edge. A deferred Unlock leaves the lock held to the end of
// the scope, including defers registered inside loops. An access whose
// base expression does not have the matching "<base>.<guard>" held on
// every path reaching it is a diagnostic. Accesses through a provably
// fresh local — one only ever assigned from a composite literal, new,
// or their address — are exempt: storage not yet shared needs no lock
// (constructors).
//
// The lock analyzers model sync.Mutex only, so any use of the type
// sync.RWMutex is a diagnostic naming sync.Mutex instead: the module
// has no RWMutex, and read/write lock modes would guard nothing. The
// annotation itself is validated: naming a field that does not exist
// in the struct, or one that is not a sync.Mutex, is a diagnostic.
var LockGuard = &Analyzer{
	Name: "lockguard",
	Doc:  "accesses to //sched:guardedby fields require the named sync.Mutex to be held in the accessing scope; sync.RWMutex is banned",
	Run:  runLockGuard,
}

const guardedByDirective = "//sched:guardedby"

func runLockGuard(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if tn, ok := pass.TypesInfo.Uses[id].(*types.TypeName); ok && isNamed(tn.Type(), "sync", "RWMutex") {
					pass.Report(id.Pos(), "sync.RWMutex: the lock analyzers model sync.Mutex only; use sync.Mutex")
				}
			}
			return true
		})
	}
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkLockScopes(pass, fn.Body, guards)
		}
	}
	return nil
}

// collectGuards parses every //sched:guardedby directive in the
// package's struct types, validates the named guard, and returns the
// map from guarded field object to guard field name.
func collectGuards(pass *Pass) map[types.Object]string {
	guards := map[types.Object]string{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				name, pos, ok := guardDirective(field)
				if !ok {
					continue
				}
				if !validGuardField(pass, st, name) {
					pass.Report(pos, "//sched:guardedby names %q, which is not a sync.Mutex field of this struct", name)
					continue
				}
				for _, id := range field.Names {
					if obj := pass.TypesInfo.Defs[id]; obj != nil {
						guards[obj] = name
					}
				}
				if len(field.Names) == 0 {
					pass.Report(pos, "//sched:guardedby on an embedded field is not supported; name the field")
				}
			}
			return true
		})
	}
	return guards
}

// guardDirective extracts the guard field name from a struct field's
// doc or trailing comment.
func guardDirective(field *ast.Field) (name string, pos token.Pos, ok bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, guardedByDirective) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, guardedByDirective))
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				return fields[0], c.Pos(), true
			}
		}
	}
	return "", token.NoPos, false
}

// validGuardField reports whether the struct declares a field called
// name whose type is sync.Mutex.
func validGuardField(pass *Pass, st *ast.StructType, name string) bool {
	for _, field := range st.Fields.List {
		for _, id := range field.Names {
			if id.Name == name {
				return isNamed(pass.TypeOf(field.Type), "sync", "Mutex")
			}
		}
	}
	return false
}

// checkLockScopes runs the held-lock dataflow on the CFG of every
// scope of body (the body plus each nested function literal) and
// reports unguarded accesses.
func checkLockScopes(pass *Pass, body *ast.BlockStmt, guards map[types.Object]string) {
	for _, scope := range funcScopes(body) {
		r := newLockReader(pass.TypesInfo)
		r.guards, r.fresh = guards, freshLocals(pass, scope)
		f := lockFlow(r, func(ev lockEvent, held heldLocks) {
			if _, ok := held[ev.key]; ev.kind == lockAccess && !ok {
				pass.Report(ev.pos, "access to %s without holding %s (//sched:guardedby %s)",
					types.ExprString(ev.sel), ev.key, ev.guard)
			}
		})
		g := cfgOf(pass.owner, scope)
		replay(g, f, forward(g, f, heldLocks{}))
	}
}

// freshLocals returns the scope's locals whose every assignment is
// provably fresh storage (composite literal, &literal, or new):
// accesses through them precede sharing and need no lock.
func freshLocals(pass *Pass, scope *ast.BlockStmt) map[types.Object]bool {
	assigned := map[types.Object][]ast.Expr{}
	ast.Inspect(scope, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			if obj := pass.ObjectOf(id); obj != nil {
				assigned[obj] = append(assigned[obj], as.Rhs[i])
			}
		}
		return true
	})
	fresh := map[types.Object]bool{}
	for obj, rhss := range assigned {
		ok := true
		for _, r := range rhss {
			if !freshExpr(r) {
				ok = false
				break
			}
		}
		if ok {
			fresh[obj] = true
		}
	}
	return fresh
}

func freshExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, lit := ast.Unparen(e.X).(*ast.CompositeLit)
			return lit
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			return id.Name == "new" || id.Name == "make"
		}
	}
	return false
}

// lockMethods is the one table of mutex methods the lock analyzers
// read. A Try acquisition holds the mutex only on the success edge of
// a branch on its result (see lockFlow); as a plain event it leaves
// the held set unchanged.
var lockMethods = map[string]struct {
	kind int
	try  bool
}{
	"Lock":    {lockAcquire, false},
	"TryLock": {lockAcquire, true},
	"Unlock":  {lockRelease, false},
}

const (
	lockAcquire = iota
	lockRelease
	lockAccess // a use of a //sched:guardedby field
	lockCall   // a call to a declared function
)

// A lockEvent is one lock-relevant event inside a CFG node.
type lockEvent struct {
	pos  token.Pos
	kind int
	// key names the mutex (acquire/release) or the guard an access
	// needs ("<base>.<guard>").
	key      string
	try      bool
	deferred bool              // runs at scope exit, not here
	sel      *ast.SelectorExpr // access: the guarded field
	guard    string            // access: the guard field's name
	fn       *types.Func       // call: the callee
}

// A lockReader extracts the position-ordered lock events of CFG nodes
// (and, for lockorder's summaries, of whole bodies). A mutex is keyed
// by its expression text (exprKey). guards, when set, adds access
// events for guarded fields, except through the fresh (not yet shared)
// locals.
type lockReader struct {
	info   *types.Info
	guards map[types.Object]string
	fresh  map[types.Object]bool
	cache  map[ast.Node][]lockEvent
	evs    []lockEvent
}

func newLockReader(info *types.Info) *lockReader {
	return &lockReader{info: info, cache: map[ast.Node][]lockEvent{}}
}

// exprKey is the lock analyzers' mutex key: the expression text.
func exprKey(e ast.Expr) string { return types.ExprString(ast.Unparen(e)) }

// events returns the lock events of n in source order.
func (r *lockReader) events(n ast.Node) []lockEvent {
	if evs, ok := r.cache[n]; ok {
		return evs
	}
	r.evs = nil
	if h, ok := n.(rangeHeader); ok {
		r.walk(h.Key, false)
		r.walk(h.Value, false)
		r.walk(h.X, false)
	} else {
		r.walk(n, false)
	}
	sort.SliceStable(r.evs, func(i, j int) bool { return r.evs[i].pos < r.evs[j].pos })
	r.cache[n] = r.evs
	return r.evs
}

// walk visits n, skipping nested function literals (their bodies are
// separate scopes). deferred marks the call under a defer.
func (r *lockReader) walk(n ast.Node, deferred bool) {
	switch n := n.(type) {
	case nil:
	case *ast.DeferStmt:
		r.walk(n.Call, true)
	case *ast.CallExpr:
		if r.lockCall(n, deferred) {
			return
		}
		if fn := calleeFunc(r.info, n); fn != nil {
			r.evs = append(r.evs, lockEvent{pos: n.Pos(), kind: lockCall, fn: fn, deferred: deferred})
		}
		r.walk(n.Fun, false)
		for _, a := range n.Args {
			r.walk(a, false)
		}
	case *ast.SelectorExpr:
		r.access(n)
		r.walk(n.X, false)
	case *ast.FuncLit:
		// separate scope
	default:
		// Generic traversal for everything else, preserving the
		// no-descend-into-literals rule.
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n {
				return true
			}
			switch m.(type) {
			case ast.Stmt, ast.Expr:
				r.walk(m, false)
				return false
			}
			return true
		})
	}
}

// lockCall records a lockMethods call on a mutex and reports whether
// the call was consumed as a lock event. The mutex expression itself
// is still read: it may select through guarded state or call.
func (r *lockReader) lockCall(call *ast.CallExpr, deferred bool) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	m, ok := lockMethods[sel.Sel.Name]
	if !ok || !isNamed(r.info.TypeOf(sel.X), "sync", "Mutex") {
		return false
	}
	r.evs = append(r.evs, lockEvent{pos: call.Pos(), kind: m.kind, key: exprKey(sel.X),
		try: m.try, deferred: deferred})
	r.walk(sel.X, false)
	return true
}

// access records a use of a guarded field.
func (r *lockReader) access(sel *ast.SelectorExpr) {
	obj := r.info.ObjectOf(sel.Sel)
	if v, ok := obj.(*types.Var); ok {
		obj = v.Origin() // a field of a generic struct, seen through an instance
	}
	guard, ok := r.guards[obj]
	if !ok {
		return
	}
	if root := rootObject(r.info, sel.X); root != nil && r.fresh[root] {
		return // not yet shared
	}
	r.evs = append(r.evs, lockEvent{pos: sel.Pos(), kind: lockAccess,
		key: exprKey(sel.X) + "." + guard, sel: sel, guard: guard})
}

// heldLocks is the lock analyzers' state: held mutex key → acquisition
// site.
type heldLocks = facts[string, token.Pos]

// lockFlow is the held-lock dataflow shared by lockguard, lockorder and
// chanrule. The join is intersection: a lock is held after a merge
// only if held on every path. A deferred release leaves the lock held
// to the end of the scope, including defers registered inside loops,
// and a branch on TryLock holds the mutex exactly on its success edge.
// onEvent, when set, sees every event with the state before it during
// the replay.
func lockFlow(r *lockReader, onEvent func(ev lockEvent, held heldLocks)) flow[string, token.Pos] {
	return flow[string, token.Pos]{
		node: func(n ast.Node, held heldLocks, report bool) {
			for _, ev := range r.events(n) {
				if report && onEvent != nil {
					onEvent(ev, held)
				}
				switch {
				case ev.kind == lockAcquire && !ev.try:
					held[ev.key] = ev.pos
				case ev.kind == lockRelease && !ev.deferred:
					delete(held, ev.key)
				}
			}
		},
		edge: func(e cfgEdge, held heldLocks) {
			expr, val := condValue(e.cond, e.when)
			call, ok := expr.(*ast.CallExpr)
			if !ok || !val {
				return
			}
			for _, ev := range r.events(call) {
				if ev.try && ev.pos == call.Pos() {
					held[ev.key] = ev.pos
				}
			}
		},
	}
}
