package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
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
// The analysis is a may-dataflow over each function's CFG (cfg.go):
// every variable carries the set of roots its value may derive from —
// the function's parameters, its receiver, and the scratch. Merges
// take the union, so a clear on one branch only (`if c { v = fresh }`)
// or a value carried around a loop stays derived; a reassignment from
// a fresh value on every path (typically x = x.Clone()) clears it, as
// does the branch on which `x == nil` holds. An immediately invoked
// function literal is replayed in its caller's frame.
//
//   - Sources: any expression of scratch type (a named type whose name
//     contains "Scratch", or any type from internal/arena), and the
//     results of calls that receive a scratch-derived argument or
//     receiver (the *Scratch-threading convention of PR 3: such calls
//     return views into the scratch). Error results are exempt.
//   - Propagation: selectors, indexing, slicing, dereference, address-
//     of, append, conversions, composite literals, and type assertions
//     carry roots; only reference-carrying ("retentive") types can
//     carry any — scalars and scalar-only structs never do.
//   - Laundering: a Clone or Copy method call returns fresh storage.
//
// Escapes of a value are: returning it; storing it in a field, map,
// element, or package-level variable whose storage is not derived from
// the scratch (a store into a not-yet-derived local only makes the
// local derived); sending it on a channel; passing it to a goroutine
// or capturing it in a function literal that escapes (go statement,
// store, send, return, assignment); and passing it to a same-package
// function that publishes the corresponding parameter. An escape of a
// parameter-derived value grows the function's escape summary (where
// each parameter may be published: another parameter's storage, the
// receiver's, or anywhere shared); summaries grow to a fixpoint, so a
// chain run → finish → helper resolves. An escape of a scratch-derived
// value is a diagnostic, except that returns and stores are allowed in
// a function marked //sched:owns-result, which declares the documented
// caller-must-clone contract (a directive on a function that never
// hands out scratch-derived storage is itself flagged).
//
// Values that are themselves scratch-typed (the scratch, a sub-scratch
// field, a pooled []*Scratch slot) are plumbing, not leaks: moving a
// scratch around transfers ownership and is always allowed.
var ScratchOwn = &Analyzer{
	Name: "scratchown",
	Doc:  "scratch-derived storage must not escape except through Clone or a //sched:owns-result boundary",
	Run:  runScratchOwn,
}

// roots is the set of origins a value may derive from, one bit each.
// As an escape-summary target set it also uses rootOther.
type roots uint64

const (
	rootScratch roots = 1 << iota // storage a scratch owns
	rootRecv                      // the method receiver
	rootOther                     // unconditionally shared storage (targets only)
	rootParam0                    // parameter 0; see paramRoot
)

// paramRoot is parameter i's bit. Parameters past the word share the
// last bit, a conservative merge no function in the repository needs.
func paramRoot(i int) roots { return rootParam0 << min(i, 60) }

// ownFacts maps each variable to the roots its value may derive from.
type ownFacts = facts[types.Object, roots]

// An escapeSummary records, per parameter, the targets the function may
// publish it to: rootRecv, rootOther, or other parameters' bits.
type escapeSummary struct {
	params   []roots
	variadic bool
}

// targets returns the targets of the parameter that call argument i
// binds.
func (s *escapeSummary) targets(i int) roots {
	if s.variadic && i >= len(s.params)-1 {
		i = len(s.params) - 1
	}
	if i < 0 || i >= len(s.params) {
		return 0
	}
	return s.params[i]
}

// add records that the parameters in src may be published to t,
// reporting whether the summary grew.
func (s *escapeSummary) add(src, t roots) bool {
	grew := false
	for i, had := range s.params {
		if src&paramRoot(i) != 0 && had|t != had {
			s.params[i] |= t
			grew = true
		}
	}
	return grew
}

// ownFn is one function under the walk.
type ownFn struct {
	decl    *ast.FuncDecl
	sum     *escapeSummary
	entry   ownFacts // parameters and receiver → their own root
	in      []ownFacts
	ownsHit bool // some return or store handed out scratch storage
}

// ownWalk runs the derivation dataflow over one package's functions.
type ownWalk struct {
	pass   *Pass
	sums   map[*types.Func]*escapeSummary
	flow   flow[types.Object, roots]
	fn     *ownFn
	st     ownFacts // the state the current node transforms
	replay bool     // converged replay: escapes count
	inline int      // depth of directly called literals being replayed
	grew   bool
	found  []finding // scratch escapes of the current replay
}

type finding struct {
	pos token.Pos
	msg string
}

func runScratchOwn(pass *Pass) error {
	w := &ownWalk{pass: pass, sums: map[*types.Func]*escapeSummary{}}
	var fns []*ownFn
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := fn.Type().(*types.Signature)
			of := &ownFn{decl: fd, entry: ownFacts{},
				sum: &escapeSummary{params: make([]roots, sig.Params().Len()), variadic: sig.Variadic()}}
			if r := sig.Recv(); r != nil {
				of.entry[r] = rootRecv
			}
			for i := 0; i < sig.Params().Len(); i++ {
				if p := sig.Params().At(i); retentiveType(p.Type()) {
					of.entry[p] = paramRoot(i)
				}
			}
			fns = append(fns, of)
			w.sums[fn] = of.sum
		}
	}
	// Every finding starts at a scratch-typed expression: a package
	// without one needs no dataflow.
	if usesScratch(pass.TypesInfo) {
		w.solve(fns)
	}
	for _, of := range fns {
		if HasOwnsResultDirective(of.decl) && !of.ownsHit {
			pass.Report(of.decl.Pos(), "//sched:owns-result on %s, but it never returns a scratch-derived value; drop the directive", of.decl.Name.Name)
		}
	}
	return nil
}

// solve converges each function's derivation state, then replays until
// no summary grows; the findings of the last replay, made against the
// stable summaries, are the ones reported.
func (w *ownWalk) solve(fns []*ownFn) {
	w.flow = flow[types.Object, roots]{
		may:  true,
		meet: func(a, b roots) roots { return a | b },
		node: w.node,
		edge: w.nilEdge,
	}
	// The derivation state does not depend on the summaries, so each
	// function's dataflow converges once; only the replays repeat.
	for _, of := range fns {
		w.fn = of
		of.in = forward(cfgOf(w.pass.owner, of.decl.Body), w.flow, of.entry)
	}
	fixpoint(func() bool {
		w.grew, w.found = false, w.found[:0]
		for _, of := range fns {
			w.fn, of.ownsHit = of, false
			replay(cfgOf(w.pass.owner, of.decl.Body), w.flow, of.in)
		}
		return w.grew
	})
	for _, d := range w.found {
		w.pass.Report(d.pos, "%s", d.msg)
	}
}

func usesScratch(info *types.Info) bool {
	for _, tv := range info.Types {
		if isScratchType(tv.Type) {
			return true
		}
	}
	return false
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
// scalar-only structs cannot alias a buffer and never carry roots.
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

// rootObject follows selectors/indexes/derefs to the base identifier's
// object, or nil.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// rootsOf is the one derivation rule set: the roots the value of e may
// derive from in the current state.
func (w *ownWalk) rootsOf(e ast.Expr) roots {
	e = ast.Unparen(e)
	if e == nil {
		return 0
	}
	var r roots
	if t := w.pass.TypeOf(e); t != nil {
		_, isTuple := t.(*types.Tuple) // filtered per result at the assignment
		switch {
		case isScratchType(t):
			r = rootScratch
		case isErrorType(t):
			return 0 // errors are fresh by convention, never views
		case !isTuple && !retentiveType(t):
			return 0
		}
	}
	switch e := e.(type) {
	case *ast.Ident:
		r |= w.st[w.pass.ObjectOf(e)]
	case *ast.SelectorExpr:
		r |= w.rootsOf(e.X)
	case *ast.IndexExpr:
		r |= w.rootsOf(e.X)
	case *ast.SliceExpr:
		r |= w.rootsOf(e.X)
	case *ast.StarExpr:
		r |= w.rootsOf(e.X)
	case *ast.TypeAssertExpr:
		r |= w.rootsOf(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			r |= w.rootsOf(e.X)
		}
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			// A scratch-typed element is ownership plumbing (a struct
			// may own its scratches); only derived views propagate.
			if !isScratchType(w.pass.TypeOf(el)) {
				r |= w.rootsOf(el)
			}
		}
	case *ast.CallExpr:
		r |= w.callRoots(e)
	}
	return r
}

// callRoots derives a call's result from its arguments and method
// receiver (the scratch-threading convention: a function handed
// storage may return views into it), unless the call launders
// (Clone/Copy) or builds fresh storage (make/new and other builtins
// but append).
func (w *ownWalk) callRoots(call *ast.CallExpr) roots {
	if tv, ok := w.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return w.rootsOf(call.Args[0]) // conversion T(x)
	}
	fun := ast.Unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := w.pass.ObjectOf(id).(*types.Builtin); ok && b.Name() != "append" {
			return 0
		}
	}
	var r roots
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s := w.pass.TypesInfo.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
			if launderNames[sel.Sel.Name] {
				return 0
			}
			r = w.rootsOf(sel.X)
		}
	}
	for _, a := range call.Args {
		r |= w.rootsOf(a)
	}
	return r
}

// valueRoots is rootsOf for a value being published: a scratch-typed
// value is ownership transfer and carries nothing.
func (w *ownWalk) valueRoots(e ast.Expr) roots {
	if isScratchType(w.pass.TypeOf(e)) {
		return 0
	}
	return w.rootsOf(e)
}

// node is the transfer function: it updates the derivation state for
// one CFG node and, on the replay, records its escapes.
func (w *ownWalk) node(n ast.Node, st ownFacts, replay bool) {
	w.st, w.replay = st, replay
	switch n := n.(type) {
	case rangeHeader:
		r := w.rootsOf(n.X) // ranging a derived container derives its elements
		w.assign(n.Key, r)
		w.assign(n.Value, r)
	case *ast.AssignStmt:
		for _, r := range n.Rhs {
			w.visit(r, true)
		}
		if len(n.Lhs) == len(n.Rhs) {
			rs := make([]roots, len(n.Rhs))
			for i, r := range n.Rhs {
				rs[i] = w.rootsOf(r)
			}
			for i, l := range n.Lhs {
				w.assign(l, rs[i])
			}
		} else if len(n.Rhs) == 1 {
			r := w.rootsOf(n.Rhs[0])
			for _, l := range n.Lhs {
				w.assign(l, r)
			}
		}
	case *ast.DeclStmt:
		for _, spec := range n.Decl.(*ast.GenDecl).Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			var r roots
			for i, name := range vs.Names {
				if i < len(vs.Values) {
					w.visit(vs.Values[i], true)
					r = w.rootsOf(vs.Values[i])
				} else if len(vs.Values) != 1 {
					r = 0
				}
				w.assign(name, r)
			}
		}
	case *ast.ReturnStmt:
		for _, res := range n.Results {
			w.visit(res, true)
			// A directly called literal's return hands the value back to
			// this frame, not out of it.
			if w.replay && w.inline == 0 && w.valueRoots(res)&rootScratch != 0 {
				w.escapeScratch(0, true, res.Pos(), "returning a scratch-derived value publishes storage the scratch will reuse; Clone it or mark the function //sched:owns-result")
			}
		}
	case *ast.SendStmt:
		w.visit(n.Chan, false)
		w.visit(n.Value, true)
		w.escape(w.valueRoots(n.Value), rootOther, false, n.Arrow, "scratch-derived value sent on a channel escapes its scratch; Clone first")
	case *ast.GoStmt:
		if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
			w.capture(lit)
		} else {
			w.visit(n.Call.Fun, false)
		}
		for _, a := range n.Call.Args {
			w.visit(a, true)
			w.escape(w.valueRoots(a), rootOther, false, a.Pos(), "scratch-derived argument escapes into a goroutine; Clone it first")
		}
	default: // conditions, expression statements, defers
		w.visit(n, false)
	}
}

// nilEdge clears a variable on the branch where it is nil: it holds no
// storage there.
func (w *ownWalk) nilEdge(e cfgEdge, st ownFacts) {
	cond, when := condValue(e.cond, e.when)
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok || (bin.Op == token.EQL) != when || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return
	}
	for _, side := range [][2]ast.Expr{{bin.X, bin.Y}, {bin.Y, bin.X}} {
		id, ok := ast.Unparen(side[0]).(*ast.Ident)
		if ok && w.pass.TypesInfo.Types[side[1]].IsNil() {
			delete(st, w.pass.ObjectOf(id))
		}
	}
}

// assign binds lhs to a value with roots r: a variable of this
// function takes r (killing what it held), any other destination is a
// store.
func (w *ownWalk) assign(lhs ast.Expr, r roots) {
	if lhs == nil {
		return
	}
	if t := w.pass.TypeOf(lhs); t != nil && (!retentiveType(t) || isErrorType(t)) {
		r = 0
	}
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := w.pass.ObjectOf(l)
		if obj == nil || l.Name == "_" {
			return
		}
		if isPackageVar(obj) {
			w.store(l, l, r)
		} else if r == 0 {
			delete(w.st, obj)
		} else {
			w.st[obj] = r
		}
	case *ast.SelectorExpr:
		w.store(l, l.X, r)
	case *ast.IndexExpr:
		w.store(l, l.X, r)
	case *ast.StarExpr:
		w.store(l, l.X, r)
	}
}

func isPackageVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// dest is the one store classifier: the roots of the storage a store
// through base writes into, plus rootOther when that storage is rooted
// in a package-level variable. When base is rooted in a local variable
// of this function that derives from nothing yet, dest returns that
// local instead: storing into it publishes nothing, it only makes the
// local derived (sol.Selected = sc.selected; return sol flags the
// return).
func (w *ownWalk) dest(base ast.Expr) (roots, types.Object) {
	if base == nil {
		return 0, nil
	}
	dst := w.rootsOf(base)
	obj := rootObject(w.pass.TypesInfo, base)
	if v, ok := obj.(*types.Var); ok && !v.IsField() {
		body := w.fn.decl.Body
		switch {
		case isPackageVar(v):
			dst |= rootOther
		case dst == 0 && v.Pos() >= body.Pos() && v.Pos() < body.End():
			return 0, v
		}
	}
	return dst, nil
}

// store handles lhs = value (roots r) writing through base. Stores
// into scratch-typed slots are pooling, not leaks.
func (w *ownWalk) store(lhs, base ast.Expr, r roots) {
	if r == 0 || isScratchType(w.pass.TypeOf(lhs)) {
		return
	}
	dst, local := w.dest(base)
	if local != nil {
		w.st[local] |= r
		return
	}
	w.escape(r, dst, true, lhs.Pos(), "scratch-derived value stored outside its scratch escapes reuse; Clone it or route it through scratch-owned storage")
}

// escape records a value with roots r reaching storage dst. On the
// replay, its parameter roots grow the summary, and its scratch root
// is a finding unless dst is itself scratch storage (ownsOK: or the
// function owns its result). Reports whether there was a finding.
func (w *ownWalk) escape(r, dst roots, ownsOK bool, pos token.Pos, msg string, args ...any) bool {
	if !w.replay {
		return false
	}
	if t := dst &^ rootScratch; t != 0 && w.fn.sum.add(r, t) {
		w.grew = true
	}
	if r&rootScratch == 0 {
		return false
	}
	return w.escapeScratch(dst, ownsOK, pos, msg, args...)
}

// escapeScratch is escape's finding half for a scratch-rooted value.
func (w *ownWalk) escapeScratch(dst roots, ownsOK bool, pos token.Pos, msg string, args ...any) bool {
	if !w.replay || dst&rootScratch != 0 {
		return false
	}
	if ownsOK && HasOwnsResultDirective(w.fn.decl) {
		w.fn.ownsHit = true
		return false
	}
	w.found = append(w.found, finding{pos, fmt.Sprintf(msg, args...)})
	return true
}

// visit finds the escapes that live inside an expression: calls whose
// arguments reach a publishing parameter, the bodies of immediately
// invoked function literals, and function literals in an escaping
// position capturing derived variables.
func (w *ownWalk) visit(e ast.Node, escaping bool) {
	if e == nil || !w.replay {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			w.call(n)
		case *ast.FuncLit:
			if call := directCall(e, n); call != nil {
				w.replayLiteral(n, call.Args)
			} else if escaping {
				w.capture(n)
			}
			return false // the literal's body is a flow of its own
		}
		return true
	})
}

// directCall returns the call within root that immediately invokes lit
// (an IIFE, which does not escape), or nil.
func directCall(root ast.Node, lit *ast.FuncLit) *ast.CallExpr {
	var direct *ast.CallExpr
	ast.Inspect(root, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && ast.Unparen(call.Fun) == lit {
			direct = call
		}
		return direct == nil
	})
	return direct
}

// replayLiteral checks an immediately invoked literal as part of this
// frame: its CFG runs from the current state, so captured variables
// keep their roots, and each parameter takes its argument's. A store
// or send inside the literal is then judged like one outside it.
func (w *ownWalk) replayLiteral(lit *ast.FuncLit, args []ast.Expr) {
	entry := maps.Clone(w.st)
	var params []*ast.Ident // all named or all unnamed
	for _, field := range lit.Type.Params.List {
		params = append(params, field.Names...)
	}
	for i, p := range params {
		if obj := w.pass.ObjectOf(p); obj != nil && i < len(args) {
			if r := w.rootsOf(args[i]); r != 0 {
				entry[obj] = r
			}
		}
	}
	st := w.st
	g := cfgOf(w.pass.owner, lit.Body)
	w.inline++
	replay(g, w.flow, forward(g, w.flow, entry))
	w.inline--
	w.st, w.replay = st, true
}

// capture publishes every derived, non-scratch-typed variable of this
// function that an escaping literal references.
func (w *ownWalk) capture(lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := w.pass.TypesInfo.Uses[id].(*types.Var); ok && !v.IsField() && !isScratchType(v.Type()) {
			w.escape(w.st[v], rootOther, false, id.Pos(), "escaping closure captures scratch-derived %q; the buffer may be reused while the closure still holds it", v.Name())
		}
		return true
	})
}

// call composes a same-package callee's escape summary: an argument
// handed to a parameter the callee publishes escapes to the storage
// the matching receiver or argument has at this call site. At most one
// finding is reported per argument.
func (w *ownWalk) call(call *ast.CallExpr) {
	callee := calleeFunc(w.pass.TypesInfo, call)
	sum := w.sums[callee]
	if sum == nil {
		return // cross-package or summary-less callee
	}
	var recv ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s := w.pass.TypesInfo.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
			recv = sel.X
		}
	}
	for i, arg := range call.Args {
		r := w.valueRoots(arg)
		t := sum.targets(i)
		if r == 0 || t == 0 {
			continue
		}
		if t&rootOther != 0 && w.escape(r, rootOther, false, arg.Pos(), "scratch-derived argument escapes through %s, which publishes this parameter; Clone it first", callee.Name()) {
			r &^= rootScratch // one finding per argument
		}
		into := func(site ast.Expr) {
			// A local that derives from nothing yet is no scratch
			// storage either: publishing into it at a call is reported.
			dst, _ := w.dest(site)
			if w.escape(r, dst, false, arg.Pos(), "scratch-derived argument escapes through %s into non-scratch storage; Clone it first", callee.Name()) {
				r &^= rootScratch
			}
		}
		if t&rootRecv != 0 {
			into(recv)
		}
		for j := range max(len(call.Args), len(sum.params)) {
			switch {
			case t&paramRoot(j) == 0:
			case j < len(call.Args):
				into(call.Args[j])
			default:
				into(nil)
			}
		}
	}
}
