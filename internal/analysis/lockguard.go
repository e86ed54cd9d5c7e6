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
// (doc comment or trailing comment) may only be read while mu — a
// sync.Mutex or sync.RWMutex field of the same struct — is held, and
// only written while it is write-held. The serving path's shared state
// (result-cache shards, online sessions, the known-instance table,
// the server's connection set, the daemon's response writer) is guarded
// by convention today; -race only catches the schedules the tests
// happen to race.
//
// The check is a per-scope CFG dataflow (cfg.go): within one function
// body (each function literal is its own scope — a closure that
// touches guarded state must lock for itself), the held-lock set is
// propagated over basic blocks to a fixpoint, joining by intersection
// at merges, so branch-dependent unlocks (`if err != nil { mu.Unlock();
// return }`) and loops are modeled precisely instead of by source
// position. A branch on mu.TryLock()/TryRLock() holds the lock exactly
// on the success edge. A deferred Unlock leaves the lock held to the
// end of the scope, including defers registered inside loops. An
// access whose base expression does not have the matching
// "<base>.<guard>" held on every path reaching it is a diagnostic;
// writes additionally require write-hold (RLock does not license
// mutation). Accesses through a provably fresh local — one only ever
// assigned from a composite literal, new, or their address — are
// exempt: storage not yet shared needs no lock (constructors).
//
// The annotation itself is validated: naming a field that does not
// exist in the struct, or one that is not a mutex, is a diagnostic.
var LockGuard = &Analyzer{
	Name: "lockguard",
	Doc:  "reads/writes of //sched:guardedby fields require the named mutex to be held in the accessing scope",
	Run:  runLockGuard,
}

const guardedByDirective = "//sched:guardedby"

func runLockGuard(pass *Pass) error {
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
					pass.Report(pos, "//sched:guardedby names %q, which is not a sync.Mutex or sync.RWMutex field of this struct", name)
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
// name whose type is sync.Mutex or sync.RWMutex.
func validGuardField(pass *Pass, st *ast.StructType, name string) bool {
	for _, field := range st.Fields.List {
		for _, id := range field.Names {
			if id.Name == name {
				return isNamed(pass.TypeOf(field.Type), "sync", "Mutex", "RWMutex")
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
		r := newLockReader(pass.TypesInfo, exprKey)
		r.guards, r.fresh = guards, freshLocals(pass, scope)
		f := lockFlow(r, func(ev lockEvent, held heldLocks) {
			if ev.kind != lockAccess {
				return
			}
			h, ok := held[ev.key]
			switch {
			case !ok:
				pass.Report(ev.pos, "%s %s without holding %s (//sched:guardedby %s)",
					accessWord(ev.mode), types.ExprString(ev.sel), ev.key, ev.guard)
			case ev.mode == 'w' && h.mode == 'r':
				pass.Report(ev.pos, "write to %s while %s is only read-held (RLock); writes need Lock",
					types.ExprString(ev.sel), ev.key)
			}
		})
		g := cfgOf(pass.owner, scope)
		replay(g, f, forward(g, f, heldLocks{}))
	}
}

func accessWord(mode byte) string {
	if mode == 'w' {
		return "write to"
	}
	return "read of"
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
	mode byte
	try  bool
}{
	"Lock":     {lockAcquire, 'w', false},
	"RLock":    {lockAcquire, 'r', false},
	"TryLock":  {lockAcquire, 'w', true},
	"TryRLock": {lockAcquire, 'r', true},
	"Unlock":   {lockRelease, 'w', false},
	"RUnlock":  {lockRelease, 'r', false},
}

const (
	lockAcquire = iota
	lockRelease
	lockAccess // a read or write of a //sched:guardedby field
	lockCall   // a call to a declared function
)

// A lockEvent is one lock-relevant event inside a CFG node.
type lockEvent struct {
	pos  token.Pos
	kind int
	// key names the mutex (acquire/release) or the guard an access
	// needs ("<base>.<guard>").
	key string
	// mode is 'w' for Lock and writes, 'r' for RLock and reads.
	mode     byte
	try      bool
	deferred bool              // runs at scope exit, not here
	sel      *ast.SelectorExpr // access: the guarded field
	guard    string            // access: the guard field's name
	fn       *types.Func       // call: the callee
}

// A lockReader extracts the position-ordered lock events of CFG nodes
// (and, for lockorder's summaries, of whole bodies). key names a mutex
// expression, "" leaving it untracked: lockguard and chanrule key by
// the expression text, lockorder by the module-wide mutex identity.
// guards, when set, adds access events for guarded fields, except
// through the fresh (not yet shared) locals.
type lockReader struct {
	info   *types.Info
	key    func(mutex ast.Expr) string
	guards map[types.Object]string
	fresh  map[types.Object]bool
	cache  map[ast.Node][]lockEvent
	evs    []lockEvent
}

func newLockReader(info *types.Info, key func(ast.Expr) string) *lockReader {
	return &lockReader{info: info, key: key, cache: map[ast.Node][]lockEvent{}}
}

// exprKey is the lockguard/chanrule mutex key: the expression text.
func exprKey(e ast.Expr) string { return types.ExprString(ast.Unparen(e)) }

// events returns the lock events of n in source order.
func (r *lockReader) events(n ast.Node) []lockEvent {
	if evs, ok := r.cache[n]; ok {
		return evs
	}
	r.evs = nil
	if h, ok := n.(rangeHeader); ok {
		r.walk(h.Key, true, false)
		r.walk(h.Value, true, false)
		r.walk(h.X, false, false)
	} else {
		r.walk(n, false, false)
	}
	sort.SliceStable(r.evs, func(i, j int) bool { return r.evs[i].pos < r.evs[j].pos })
	r.cache[n] = r.evs
	return r.evs
}

// walk visits n in source order, skipping nested function literals
// (their bodies are separate scopes). write marks the assignment-target
// context; deferred marks the call under a defer.
func (r *lockReader) walk(n ast.Node, write, deferred bool) {
	switch n := n.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, s := range n.List {
			r.walk(s, false, false)
		}
	case *ast.AssignStmt:
		for _, l := range n.Lhs {
			r.walk(l, true, false)
		}
		for _, rhs := range n.Rhs {
			r.walk(rhs, false, false)
		}
	case *ast.IncDecStmt:
		r.walk(n.X, true, false)
	case *ast.DeferStmt:
		r.walk(n.Call, false, true)
	case *ast.CallExpr:
		if r.lockCall(n, deferred) {
			return
		}
		if fn := calleeFunc(r.info, n); fn != nil {
			r.evs = append(r.evs, lockEvent{pos: n.Pos(), kind: lockCall, fn: fn, deferred: deferred})
		}
		r.walk(n.Fun, false, false)
		for _, a := range n.Args {
			r.walk(a, false, false)
		}
	case *ast.SelectorExpr:
		r.access(n, write)
		r.walk(n.X, false, false)
	case *ast.IndexExpr:
		r.walk(n.X, write, false) // s.m[k] = v writes through s.m
		r.walk(n.Index, false, false)
	case *ast.StarExpr:
		r.walk(n.X, write, false)
	case *ast.UnaryExpr:
		r.walk(n.X, n.Op == token.AND || write, false)
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
				r.walk(m, write, deferred)
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
	if !ok || !isNamed(r.info.TypeOf(sel.X), "sync", "Mutex", "RWMutex") {
		return false
	}
	if key := r.key(sel.X); key != "" {
		r.evs = append(r.evs, lockEvent{pos: call.Pos(), kind: m.kind, key: key,
			mode: m.mode, try: m.try, deferred: deferred})
	}
	r.walk(sel.X, false, false)
	return true
}

// access records a read or write of a guarded field.
func (r *lockReader) access(sel *ast.SelectorExpr, write bool) {
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
	mode := byte('r')
	if write {
		mode = 'w'
	}
	// Plain-Mutex guards have no read mode: any hold licenses access,
	// which falls out of Lock registering 'w'.
	r.evs = append(r.evs, lockEvent{pos: sel.Pos(), kind: lockAccess,
		key: r.key(sel.X) + "." + guard, mode: mode, sel: sel, guard: guard})
}

// hold is how a mutex is held: its mode and acquisition site.
type hold struct {
	mode byte // 'w' (Lock) or 'r' (RLock)
	at   token.Pos
}

// heldLocks is the lock analyzers' state: held mutex key → hold.
type heldLocks = facts[string, hold]

// lockFlow is the held-lock dataflow shared by lockguard, lockorder and
// chanrule. The join is intersection, weakening 'w' to 'r' on mode
// disagreement (a lock is write-held after a merge only if write-held
// on every path). A deferred release leaves the lock held to the end
// of the scope, including defers registered inside loops, and a branch
// on TryLock/TryRLock holds the mutex exactly on its success edge.
// onEvent, when set, sees every event with the state before it during
// the replay.
func lockFlow(r *lockReader, onEvent func(ev lockEvent, held heldLocks)) flow[string, hold] {
	return flow[string, hold]{
		meet: func(a, b hold) hold {
			if a.mode != b.mode {
				a.mode = 'r'
			}
			return a
		},
		node: func(n ast.Node, held heldLocks, report bool) {
			for _, ev := range r.events(n) {
				if report && onEvent != nil {
					onEvent(ev, held)
				}
				switch {
				case ev.kind == lockAcquire && !ev.try:
					held[ev.key] = hold{ev.mode, ev.pos}
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
					held[ev.key] = hold{ev.mode, ev.pos}
				}
			}
		},
	}
}
