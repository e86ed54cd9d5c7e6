package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ScratchOwn enforces the buffer-ownership half of the zero-allocation
// discipline (DESIGN.md §6): storage owned by a *Scratch (or an arena
// buffer) is valid only until the scratch's next use, so values derived
// from scratch storage — schedules, sub-slices, pointers into reused
// buffers — must not outlive the call that produced them. One clone at
// the serving boundary (internal/service) is what makes every cached
// and returned result safe; before this analyzer, that clone was a
// convention enforced by exactly one line of code.
//
// The analysis is an intra-procedural taint walk, flow-sensitive in
// source order (a reassignment from a fresh value — typically
// x = x.Clone() — clears the taint):
//
//   - Sources: any expression of scratch type (a named type whose name
//     contains "Scratch", or any type from internal/arena), and the
//     results of calls that receive a scratch-typed argument or
//     receiver (the *Scratch-threading convention of PR 3: such calls
//     return views into the scratch). Error results are exempt.
//   - Propagation: selectors, indexing, slicing, dereference, address-
//     of, append, composite literals, and type assertions carry taint;
//     only reference-carrying ("retentive") types can be tainted at
//     all — scalars and scalar-only structs never are.
//   - Laundering: a Clone or Copy method call returns fresh storage.
//
// Escapes of a tainted value are diagnostics:
//
//   - returning it (suppressed by the //sched:owns-result directive,
//     which declares the documented caller-must-clone contract; a
//     directive on a function that never returns scratch-derived
//     storage is itself flagged);
//   - storing it in a field, map, or element whose base is neither
//     scratch-typed nor itself scratch-derived;
//   - sending it on a channel;
//   - capturing it in a function literal that escapes (go statement,
//     call argument, return, store, send);
//   - passing it to a same-package function that publishes the
//     corresponding parameter (per an escape summary computed for
//     every function in the package, to a fixpoint) into storage that
//     is not scratch-derived at this call site.
//
// Values that are themselves scratch-typed (the scratch, a sub-scratch
// field, a pooled []*Scratch slot) are plumbing, not leaks: moving a
// scratch around transfers ownership and is always allowed.
var ScratchOwn = &Analyzer{
	Name: "scratchown",
	Doc:  "scratch-derived storage must not escape except through Clone or a //sched:owns-result boundary",
	Run:  runScratchOwn,
}

func runScratchOwn(pass *Pass) error {
	sums := buildEscapeSummaries(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkScratchOwn(pass, fn, sums)
		}
	}
	return nil
}

// isScratchType reports whether t is scratch-owning storage by the
// repo's naming convention: a named type whose name contains "Scratch",
// any type declared in internal/arena, or a pointer/slice/array of one.
func isScratchType(t types.Type) bool {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Slice:
			t = tt.Elem()
		case *types.Array:
			t = tt.Elem()
		case *types.Named:
			obj := tt.Obj()
			if strings.Contains(obj.Name(), "Scratch") {
				return true
			}
			return obj.Pkg() != nil && obj.Pkg().Name() == "arena"
		default:
			return false
		}
	}
}

// retentiveType reports whether a value of type t can hold a reference
// into scratch-owned memory: pointers, slices, maps, channels, funcs,
// interfaces, and aggregates containing one. Scalars, strings, and
// scalar-only structs cannot alias a buffer and are never tainted.
func retentiveType(t types.Type) bool {
	return retentive(t, map[types.Type]bool{})
}

func retentive(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch tt := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan,
		*types.Signature, *types.Interface:
		return true
	case *types.Array:
		return retentive(tt.Elem(), seen)
	case *types.Struct:
		for i := 0; i < tt.NumFields(); i++ {
			if retentive(tt.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}

// launderNames are methods that return freshly owned storage.
var launderNames = map[string]bool{"Clone": true, "Copy": true}

// ownState is the per-function taint walk.
type ownState struct {
	pass    *Pass
	fn      *ast.FuncDecl
	sums    map[*types.Func]*escapeSummary
	tainted map[types.Object]bool
	owns    bool // fn carries //sched:owns-result
	ownsHit bool // some return actually was scratch-derived
}

func checkScratchOwn(pass *Pass, fn *ast.FuncDecl, sums map[*types.Func]*escapeSummary) {
	st := &ownState{
		pass:    pass,
		fn:      fn,
		sums:    sums,
		tainted: map[types.Object]bool{},
		owns:    HasOwnsResultDirective(fn),
	}
	st.stmt(fn.Body)
	if st.owns && !st.ownsHit {
		pass.Report(fn.Pos(), "//sched:owns-result on %s, but it never returns a scratch-derived value; drop the directive", fn.Name.Name)
	}
}

// flagged reports whether e is a taint whose escape should be reported:
// tainted, but not itself scratch-typed (moving a scratch is ownership
// transfer, not a leak).
func (st *ownState) flagged(e ast.Expr) bool {
	return st.taintedExpr(e) && !isScratchType(st.pass.TypeOf(e))
}

// stmt walks one statement in source order, updating taint and
// reporting escapes.
func (st *ownState) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, sub := range s.List {
			st.stmt(sub)
		}
	case *ast.IfStmt:
		st.stmt(s.Init)
		st.exprTree(s.Cond, false)
		st.stmt(s.Body)
		st.stmt(s.Else)
	case *ast.ForStmt:
		st.stmt(s.Init)
		st.exprTree(s.Cond, false)
		st.stmt(s.Body)
		st.stmt(s.Post)
	case *ast.RangeStmt:
		st.exprTree(s.X, false)
		if st.taintedExpr(s.X) {
			// Ranging a tainted container taints its elements.
			for _, lhs := range []ast.Expr{s.Key, s.Value} {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					if obj := st.pass.ObjectOf(id); obj != nil && retentiveType(obj.Type()) {
						st.tainted[obj] = true
					}
				}
			}
		}
		st.stmt(s.Body)
	case *ast.SwitchStmt:
		st.stmt(s.Init)
		st.exprTree(s.Tag, false)
		st.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		st.stmt(s.Init)
		st.stmt(s.Assign)
		st.stmt(s.Body)
	case *ast.SelectStmt:
		st.stmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			st.exprTree(e, false)
		}
		for _, sub := range s.Body {
			st.stmt(sub)
		}
	case *ast.CommClause:
		st.stmt(s.Comm)
		for _, sub := range s.Body {
			st.stmt(sub)
		}
	case *ast.LabeledStmt:
		st.stmt(s.Stmt)
	case *ast.ExprStmt:
		st.exprTree(s.X, false)
	case *ast.AssignStmt:
		st.assign(s)
	case *ast.DeclStmt:
		st.decl(s)
	case *ast.ReturnStmt:
		st.ret(s)
	case *ast.SendStmt:
		st.exprTree(s.Value, true)
		if st.flagged(s.Value) {
			st.pass.Report(s.Arrow, "scratch-derived value sent on a channel escapes its scratch; Clone first")
		}
	case *ast.GoStmt:
		st.goOrDefer(s.Call, true)
	case *ast.DeferStmt:
		st.goOrDefer(s.Call, false)
	case *ast.IncDecStmt:
		st.exprTree(s.X, false)
	}
}

func (st *ownState) goOrDefer(call *ast.CallExpr, escaping bool) {
	// The spawned/deferred call's arguments (and, for go, a capturing
	// literal) escape the current frame's lifetime discipline.
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		if escaping {
			st.checkLitCapture(lit)
		}
		st.exprTree(lit, false)
	}
	for _, a := range call.Args {
		st.exprTree(a, escaping)
	}
	st.checkCallArgs(call)
}

// assign evaluates RHS taint, reports store-escapes, and updates (or
// kills) the taint of assigned variables.
func (st *ownState) assign(s *ast.AssignStmt) {
	for _, r := range s.Rhs {
		st.exprTree(r, true)
	}
	if len(s.Lhs) == len(s.Rhs) {
		for i, lhs := range s.Lhs {
			st.assignOne(lhs, st.taintedExpr(s.Rhs[i]))
		}
		return
	}
	// Multi-value RHS: one call/type-assertion/map-read. Taint every
	// retentive, non-error LHS when the source is tainted.
	tainted := len(s.Rhs) == 1 && st.taintedExpr(s.Rhs[0])
	for _, lhs := range s.Lhs {
		t := st.pass.TypeOf(lhs)
		st.assignOne(lhs, tainted && retentiveType(t) && !isErrorType(t))
	}
}

// assignOne records one LHS receiving a (possibly tainted) value:
// identifiers gain or lose taint (flow-sensitively), stores into
// non-scratch bases with a tainted value are escapes.
func (st *ownState) assignOne(lhs ast.Expr, tainted bool) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		obj := st.pass.ObjectOf(l)
		if obj == nil {
			return
		}
		if tainted {
			st.tainted[obj] = true
		} else {
			delete(st.tainted, obj) // x = x.Clone() clears the taint
		}
	case *ast.SelectorExpr:
		st.checkStore(l, l.X, tainted)
	case *ast.IndexExpr:
		st.checkStore(l, l.X, tainted)
	case *ast.StarExpr:
		st.checkStore(l, l.X, tainted)
	}
}

// checkStore handles a tainted value stored through a base that is
// neither scratch-derived nor scratch-typed storage. A store into a
// local aggregate does not publish anything yet — it taints the local,
// and the later return/store of that local is where the diagnostic
// belongs (sol.Selected = sc.selected; return sol flags the return).
// A store through a parameter, receiver, or package variable publishes
// immediately.
func (st *ownState) checkStore(lhs, base ast.Expr, tainted bool) {
	if !tainted {
		return
	}
	if st.taintedExpr(base) || isScratchType(st.pass.TypeOf(lhs)) {
		return // scratch-to-scratch, or scratch plumbing (pooling slots)
	}
	if root := rootObject(st.pass, base); root != nil {
		if v, ok := root.(*types.Var); ok && !v.IsField() &&
			st.fn.Body != nil &&
			v.Pos() >= st.fn.Body.Pos() && v.Pos() < st.fn.Body.End() {
			st.tainted[root] = true
			return
		}
	}
	if st.owns {
		// A //sched:owns-result boundary may also publish through an
		// out-parameter (shelves.Build fills res *Result).
		st.ownsHit = true
		return
	}
	st.pass.Report(lhs.Pos(), "scratch-derived value stored outside its scratch escapes reuse; Clone it or route it through scratch-owned storage")
}

func (st *ownState) decl(s *ast.DeclStmt) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			if i < len(vs.Values) {
				st.exprTree(vs.Values[i], true)
				if obj := st.pass.ObjectOf(name); obj != nil && st.taintedExpr(vs.Values[i]) {
					st.tainted[obj] = true
				}
			}
		}
	}
}

func (st *ownState) ret(s *ast.ReturnStmt) {
	for _, r := range s.Results {
		st.exprTree(r, true)
		if st.flagged(r) {
			if st.owns {
				st.ownsHit = true
				continue
			}
			st.pass.Report(r.Pos(), "returning a scratch-derived value publishes storage the scratch will reuse; Clone it or mark the function //sched:owns-result")
		}
	}
}

// exprTree walks an expression tree for escapes that live inside
// expressions: calls whose arguments hit a publishing parameter, and
// function literals capturing tainted variables in escaping positions.
func (st *ownState) exprTree(e ast.Expr, escaping bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			st.checkCallArgs(n)
		case *ast.FuncLit:
			if escaping && !isDirectCall(e, n) {
				st.checkLitCapture(n)
			}
			return false // a literal's body is not this frame's flow
		}
		return true
	})
}

// isDirectCall reports whether lit is immediately invoked within root
// (an IIFE does not escape).
func isDirectCall(root ast.Expr, lit *ast.FuncLit) bool {
	direct := false
	ast.Inspect(root, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && ast.Unparen(call.Fun) == lit {
			direct = true
		}
		return true
	})
	return direct
}

// checkLitCapture flags an escaping literal that captures a tainted,
// non-scratch-typed variable of the enclosing function.
func (st *ownState) checkLitCapture(lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := st.pass.TypesInfo.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() || !st.tainted[obj] || isScratchType(v.Type()) {
			return true
		}
		if pos := v.Pos(); pos >= st.fn.Pos() && pos <= st.fn.End() && (pos < lit.Pos() || pos > lit.End()) {
			st.pass.Report(id.Pos(), "escaping closure captures scratch-derived %q; the buffer may be reused while the closure still holds it", v.Name())
			return false
		}
		return true
	})
}

// taintedExpr reports whether e currently holds scratch-derived
// storage.
func (st *ownState) taintedExpr(e ast.Expr) bool {
	e = ast.Unparen(e)
	if e == nil {
		return false
	}
	t := st.pass.TypeOf(e)
	if t != nil && isScratchType(t) {
		return true
	}
	if t != nil && isErrorType(t) {
		return false // errors are fresh by convention, never scratch views
	}
	// Multi-value calls have tuple type; the per-result filtering
	// happens at the assignment, so don't shortcut on the tuple.
	if _, isTuple := t.(*types.Tuple); t != nil && !isTuple && !retentiveType(t) {
		return false
	}
	switch e := e.(type) {
	case *ast.Ident:
		obj := st.pass.ObjectOf(e)
		return obj != nil && st.tainted[obj]
	case *ast.SelectorExpr:
		return st.taintedExpr(e.X)
	case *ast.IndexExpr:
		return st.taintedExpr(e.X)
	case *ast.SliceExpr:
		return st.taintedExpr(e.X)
	case *ast.StarExpr:
		return st.taintedExpr(e.X)
	case *ast.TypeAssertExpr:
		return st.taintedExpr(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return st.taintedExpr(e.X)
		}
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			// A scratch-typed element is ownership plumbing (a struct
			// may own its scratches); only derived views propagate.
			if st.taintedExpr(el) && !isScratchType(st.pass.TypeOf(el)) {
				return true
			}
		}
	case *ast.CallExpr:
		return st.taintedCall(e)
	}
	return false
}

// taintedCall decides whether a call's result is scratch-derived: yes
// when any argument or the method receiver is tainted (the scratch-
// threading convention: a function handed scratch storage may return
// views into it), unless the call launders (Clone/Copy) or builds
// fresh storage (make/new).
func (st *ownState) taintedCall(call *ast.CallExpr) bool {
	fun := ast.Unparen(call.Fun)
	// Conversion T(x) keeps x's taint.
	if tv, ok := st.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return st.taintedExpr(call.Args[0])
	}
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := st.pass.ObjectOf(id).(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				for _, a := range call.Args {
					if st.taintedExpr(a) {
						return true
					}
				}
			}
			return false // make/new/len/cap/...: fresh or scalar
		}
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s := st.pass.TypesInfo.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
			if launderNames[sel.Sel.Name] {
				return false
			}
			if st.taintedExpr(sel.X) {
				return true
			}
		}
	}
	for _, a := range call.Args {
		if st.taintedExpr(a) {
			return true
		}
	}
	return false
}

// checkCallArgs applies the same-package escape summaries: passing a
// tainted value to a parameter the callee publishes is an escape,
// unless it is published into storage that is itself scratch-derived
// at this call site.
func (st *ownState) checkCallArgs(call *ast.CallExpr) {
	callee := calleeFunc(st.pass, call)
	if callee == nil {
		return
	}
	sum := st.sums[callee]
	if sum == nil {
		return // cross-package or summary-less callee
	}
	var recvExpr ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s := st.pass.TypesInfo.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
			recvExpr = sel.X
		}
	}
	argExpr := func(idx int) ast.Expr { // idx −1 is the receiver
		if idx == recvTarget {
			return recvExpr
		}
		if idx >= 0 && idx < len(call.Args) {
			return call.Args[idx]
		}
		return nil
	}
	for i, arg := range call.Args {
		if !st.flagged(arg) {
			continue
		}
		pi := i
		if sum.variadic && pi >= sum.nparams-1 {
			pi = sum.nparams - 1
		}
		for _, target := range sum.targets(pi) {
			if target == otherTarget {
				st.pass.Report(arg.Pos(), "scratch-derived argument escapes through %s, which publishes this parameter; Clone it first", callee.Name())
				break
			}
			dst := argExpr(target)
			if dst == nil || !st.taintedExpr(dst) {
				st.pass.Report(arg.Pos(), "scratch-derived argument escapes through %s into non-scratch storage; Clone it first", callee.Name())
				break
			}
		}
	}
}
