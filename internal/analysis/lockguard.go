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
// (result-cache shards, online sessions, the memo registry, the
// server's connection set, the daemon's response writer) is guarded
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
				return isMutexType(pass.TypeOf(field.Type))
			}
		}
	}
	return false
}

func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// isRWMutexType reports specifically sync.RWMutex (whose RLock grants
// read-only access).
func isRWMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "RWMutex"
}

// A lockOp is one position-ordered event in a scope: a lock
// acquisition/release or a guarded-field access.
type lockOp struct {
	pos  token.Pos
	kind int // opAcquire, opRelease, opAccess
	key  string
	// acquire/release: mode 'w' (Lock) or 'r' (RLock);
	// access: mode 'w' for writes, 'r' for reads.
	mode  byte
	field string // access: rendered field expression for the message
	guard string // access: guard field name
}

const (
	opAcquire = iota
	opRelease
	opAccess
)

// checkLockScopes finds every scope (the given body plus each nested
// function literal) and runs the held-lock dataflow on its CFG.
func checkLockScopes(pass *Pass, body *ast.BlockStmt, guards map[types.Object]string) {
	for _, scope := range funcScopes(body) {
		flowScope(pass, scope, guards)
	}
}

// heldSet is the lock-state lattice value: lock key → 'r' or 'w'.
// Join is key intersection, weakening 'w' to 'r' on mode disagreement
// (a lock is only write-held after a merge if it is write-held on
// every incoming path).
type heldSet map[string]byte

func (h heldSet) clone() heldSet {
	out := make(heldSet, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

func joinHeld(a, b heldSet) heldSet {
	out := heldSet{}
	for k, av := range a {
		if bv, ok := b[k]; ok {
			if av == bv {
				out[k] = av
			} else {
				out[k] = 'r'
			}
		}
	}
	return out
}

func equalHeld(a, b heldSet) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// heldFlowFuncs builds the lock-state dataflow client shared by
// lockguard and chanrule: opsOf extracts the ordered lock events of a
// node, and branch edges on TryLock/TryRLock acquire on the success
// path. onOp (optional) observes every op with the state before it —
// nil during fixpoint, set during the post-convergence report replay.
func heldFlowFuncs(pass *Pass, opsOf func(ast.Node) []lockOp, onOp func(op lockOp, held heldSet)) flowFuncs {
	apply := func(n ast.Node, st any) any {
		held := st.(heldSet)
		for _, op := range opsOf(n) {
			if onOp != nil {
				onOp(op, held)
			}
			switch op.kind {
			case opAcquire:
				held[op.key] = op.mode
			case opRelease:
				delete(held, op.key)
			}
		}
		return held
	}
	return flowFuncs{
		entry: func() any { return heldSet{} },
		clone: func(st any) any { return st.(heldSet).clone() },
		join:  func(a, b any) any { return joinHeld(a.(heldSet), b.(heldSet)) },
		equal: func(a, b any) bool { return equalHeld(a.(heldSet), b.(heldSet)) },
		node:  apply,
		edge: func(e cfgEdge, st any) any {
			held := st.(heldSet)
			expr, val := condValue(e.cond, e.when)
			if key, mode, ok := tryLockCall(pass, expr); ok && val {
				held[key] = mode
			}
			return held
		},
	}
}

// tryLockCall recognizes X.TryLock()/X.TryRLock() on a mutex and
// returns the lock key and granted mode.
func tryLockCall(pass *Pass, expr ast.Expr) (key string, mode byte, ok bool) {
	call, isCall := expr.(*ast.CallExpr)
	if !isCall {
		return "", 0, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || !isMutexType(pass.TypeOf(sel.X)) {
		return "", 0, false
	}
	switch sel.Sel.Name {
	case "TryLock":
		return types.ExprString(ast.Unparen(sel.X)), 'w', true
	case "TryRLock":
		return types.ExprString(ast.Unparen(sel.X)), 'r', true
	}
	return "", 0, false
}

// flowScope runs the held-lock dataflow over one scope's CFG to a
// fixpoint, then replays each reachable block once against its
// converged in-state to report unguarded accesses.
func flowScope(pass *Pass, scope *ast.BlockStmt, guards map[types.Object]string) {
	c := &lockCollector{pass: pass, scope: scope, guards: guards,
		fresh: freshLocals(pass, scope)}
	g := cfgOf(pass.owner, scope)
	in := g.forward(heldFlowFuncs(pass, c.nodeOps, nil))
	ff := heldFlowFuncs(pass, c.nodeOps, func(op lockOp, held heldSet) {
		if op.kind != opAccess {
			return
		}
		mode, ok := held[op.key]
		switch {
		case !ok:
			pass.Report(op.pos, "%s %s without holding %s (//sched:guardedby %s)",
				accessWord(op.mode), op.field, op.key, op.guard)
		case op.mode == 'w' && mode == 'r':
			pass.Report(op.pos, "write to %s while %s is only read-held (RLock); writes need Lock",
				op.field, op.key)
		}
	})
	for _, blk := range g.blocks {
		st := in[blk.index]
		if st == nil {
			continue // unreachable
		}
		cur := any(st.(heldSet).clone())
		for _, n := range blk.nodes {
			cur = ff.node(n, cur)
		}
	}
}

// nodeOps extracts the position-ordered lock events of one CFG node
// (a simple statement or a branch-condition expression).
func (c *lockCollector) nodeOps(n ast.Node) []lockOp {
	c.ops = c.ops[:0]
	switch n := n.(type) {
	case rangeHeader:
		c.walk(n.Key, true, false)
		c.walk(n.Value, true, false)
		c.walk(n.X, false, false)
	case ast.Stmt:
		c.walk(n, false, false)
	case ast.Expr:
		c.walk(n, false, false)
	}
	sort.Slice(c.ops, func(i, j int) bool { return c.ops[i].pos < c.ops[j].pos })
	return c.ops
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

type lockCollector struct {
	pass   *Pass
	scope  *ast.BlockStmt
	guards map[types.Object]string
	fresh  map[types.Object]bool
	ops    []lockOp
}

var lockMethods = map[string]struct {
	kind int
	mode byte
}{
	"Lock":    {opAcquire, 'w'},
	"RLock":   {opAcquire, 'r'},
	"Unlock":  {opRelease, 'w'},
	"RUnlock": {opRelease, 'r'},
}

// walk visits the scope in source order, skipping nested function
// literals (their bodies are separate scopes). write marks the
// assignment-target context; deferred marks calls under defer (whose
// releases are held-to-end and dropped).
func (c *lockCollector) walk(n ast.Node, write, deferred bool) {
	switch n := n.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, s := range n.List {
			c.walk(s, false, false)
		}
	case *ast.AssignStmt:
		for _, l := range n.Lhs {
			c.walk(l, true, false)
		}
		for _, r := range n.Rhs {
			c.walk(r, false, false)
		}
	case *ast.IncDecStmt:
		c.walk(n.X, true, false)
	case *ast.DeferStmt:
		c.walk(n.Call, false, true)
	case *ast.GoStmt:
		c.walk(n.Call, false, false)
	case *ast.CallExpr:
		if c.lockCall(n, deferred) {
			return
		}
		c.walk(n.Fun, false, false)
		for _, a := range n.Args {
			c.walk(a, false, false)
		}
	case *ast.SelectorExpr:
		c.access(n, write)
		c.walk(n.X, false, false)
	case *ast.IndexExpr:
		c.walk(n.X, write, false) // s.m[k] = v writes through s.m
		c.walk(n.Index, false, false)
	case *ast.StarExpr:
		c.walk(n.X, write, false)
	case *ast.UnaryExpr:
		c.walk(n.X, n.Op == token.AND || write, false)
	case *ast.FuncLit:
		// separate scope
	case *ast.ExprStmt:
		c.walk(n.X, false, false)
	case *ast.IfStmt:
		c.walk(n.Init, false, false)
		c.walk(n.Cond, false, false)
		c.walk(n.Body, false, false)
		c.walk(n.Else, false, false)
	case *ast.ForStmt:
		c.walk(n.Init, false, false)
		c.walk(n.Cond, false, false)
		c.walk(n.Body, false, false)
		c.walk(n.Post, false, false)
	case *ast.RangeStmt:
		c.walk(n.Key, true, false)
		c.walk(n.Value, true, false)
		c.walk(n.X, false, false)
		c.walk(n.Body, false, false)
	default:
		// Generic traversal for everything else, preserving the
		// no-descend-into-literals rule.
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n {
				return true
			}
			switch m.(type) {
			case ast.Stmt, ast.Expr:
				c.walk(m, write, deferred)
				return false
			}
			return true
		})
	}
}

// lockCall records X.Lock()/RLock()/Unlock()/RUnlock() on a mutex and
// reports whether the call was consumed as a lock event.
func (c *lockCollector) lockCall(call *ast.CallExpr, deferred bool) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	op, ok := lockMethods[sel.Sel.Name]
	if !ok || !isMutexType(c.pass.TypeOf(sel.X)) {
		return false
	}
	if op.kind == opRelease && deferred {
		return true // deferred unlock: held to scope end
	}
	c.ops = append(c.ops, lockOp{
		pos: call.Pos(), kind: op.kind,
		key: types.ExprString(ast.Unparen(sel.X)), mode: op.mode,
	})
	return true
}

// access records a read or write of a guarded field.
func (c *lockCollector) access(sel *ast.SelectorExpr, write bool) {
	obj := c.pass.ObjectOf(sel.Sel)
	guard, ok := c.guards[obj]
	if !ok {
		return
	}
	if root := rootObject(c.pass, sel.X); root != nil && c.fresh[root] {
		return // not yet shared
	}
	mode := byte('r')
	if write {
		mode = 'w'
	}
	// Plain-Mutex guards have no read mode: any hold licenses access.
	// The simulation handles that naturally since Lock registers 'w'.
	c.ops = append(c.ops, lockOp{
		pos: sel.Pos(), kind: opAccess,
		key:   types.ExprString(ast.Unparen(sel.X)) + "." + guard,
		mode:  mode,
		field: types.ExprString(sel),
		guard: guard,
	})
}
