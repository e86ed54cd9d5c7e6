package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc flags allocation-inducing constructs inside functions marked
// with the //sched:hotpath directive: the static form of the
// zero-allocation scratch discipline (DESIGN.md §6). The runtime
// AllocsPerRun=0 tests prove the property at one instance size; this
// analyzer proves the absence of the constructs that could break it at
// any size, everywhere a directive is planted.
//
// Flagged constructs:
//
//   - make / new
//   - map and slice composite literals, and &T{...} (escaping literal)
//   - append growing a non-scratch slice (one whose backing does not
//     derive from a struct field, a parameter, or arena.Grow/Zeroed —
//     growth from nothing always allocates; appends into Reset-
//     truncated scratch buffers amortize to zero and are allowed)
//   - func literals capturing enclosing variables (closures), and
//     method values (x.M used as a value binds a closure)
//   - implicit conversion of a non-pointer concrete value to an
//     interface (boxing; converting a pointer stores it in the
//     interface word and does not allocate)
//   - string ↔ []byte / []rune conversions
//   - go and defer statements
//
// Deliberate cold paths (nil-scratch fallbacks, error formatting off
// the happy path, grow-once buffers) are annotated in place with
// //schedlint:ignore hotalloc <why>.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid allocation-inducing constructs in //sched:hotpath functions",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !HasHotpathDirective(fn) {
				continue
			}
			checkHotFunc(pass, fn)
		}
	}
	return nil
}

// checkHotFunc applies every hotalloc rule to one marked function.
func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	scratch := scratchDerived(pass, fn)

	// callFuns collects expressions in call position, so x.M() is not
	// mistaken for a method-value binding.
	callFuns := map[ast.Expr]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			callFuns[ast.Unparen(call.Fun)] = true
		}
		return true
	})

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Report(n.Pos(), "go statement in hot path (spawns a goroutine)")
		case *ast.DeferStmt:
			pass.Report(n.Pos(), "defer in hot path (may allocate a defer record)")
		case *ast.CompositeLit:
			checkCompositeLit(pass, n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Report(n.Pos(), "&composite literal in hot path escapes to the heap")
				}
			}
		case *ast.FuncLit:
			if capt := capturedVar(pass, fn, n); capt != "" {
				pass.Report(n.Pos(), "closure capturing %q in hot path (captured variables may force heap allocation)", capt)
			}
		case *ast.SelectorExpr:
			if !callFuns[ast.Expr(n)] {
				if sel := pass.TypesInfo.Selections[n]; sel != nil && sel.Kind() == types.MethodVal {
					pass.Report(n.Pos(), "method value %s binds a closure in hot path", n.Sel.Name)
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, n, scratch)
		case *ast.AssignStmt:
			checkBoxingAssign(pass, n)
		case *ast.ValueSpec:
			checkBoxingValueSpec(pass, n)
		case *ast.ReturnStmt:
			checkBoxingReturn(pass, fn, n)
		}
		return true
	})
}

func checkCompositeLit(pass *Pass, lit *ast.CompositeLit) {
	t := pass.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		pass.Report(lit.Pos(), "map literal in hot path allocates")
	case *types.Slice:
		pass.Report(lit.Pos(), "slice literal in hot path allocates")
	}
}

// checkHotCall handles builtins (make/new/append), conversions (string
// ↔ bytes, boxing conversions), and boxing of call arguments.
func checkHotCall(pass *Pass, call *ast.CallExpr, scratch map[types.Object]bool) {
	// Type conversion T(x)?
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		checkConversion(pass, call, tv.Type)
		return
	}
	fun := ast.Unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := pass.ObjectOf(id).(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Report(call.Pos(), "make in hot path allocates")
			case "new":
				pass.Report(call.Pos(), "new in hot path allocates")
			case "append":
				checkAppend(pass, call, scratch)
			}
			return
		}
	}
	checkBoxingCall(pass, call)
}

func checkConversion(pass *Pass, call *ast.CallExpr, target types.Type) {
	arg := call.Args[0]
	at := pass.TypeOf(arg)
	if at == nil {
		return
	}
	tu, au := target.Underlying(), at.Underlying()
	if isString(tu) && isByteOrRuneSlice(au) || isString(au) && isByteOrRuneSlice(tu) {
		pass.Report(call.Pos(), "string/slice conversion in hot path allocates")
		return
	}
	if types.IsInterface(tu) && boxes(pass, arg, at) {
		pass.Report(call.Pos(), "conversion to interface boxes a non-pointer %s (allocates)", at)
	}
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// boxes reports whether assigning expr (of type at) to an interface
// heap-allocates: true for non-pointer, non-interface, non-constant,
// non-nil values. Pointers (and pointer-shaped values like channels,
// maps, funcs and unsafe pointers) fit the interface data word.
func boxes(pass *Pass, expr ast.Expr, at types.Type) bool {
	if at == nil {
		return false
	}
	if tv, ok := pass.TypesInfo.Types[expr]; ok {
		if tv.Value != nil || tv.IsNil() {
			return false // constants box to static data; nil does not box
		}
	}
	switch at.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Chan, *types.Map, *types.Signature:
		return false
	}
	return true
}

func checkBoxingCall(pass *Pass, call *ast.CallExpr) {
	sig, ok := pass.TypeOf(call.Fun).(*types.Signature)
	if !ok || call.Ellipsis != token.NoPos {
		return // x... re-passes an existing slice; no per-element boxing
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(pt.Underlying()) && boxes(pass, arg, pass.TypeOf(arg)) {
			pass.Report(arg.Pos(), "argument boxes a non-pointer %s into interface %s (allocates)", pass.TypeOf(arg), pt)
		}
	}
}

func checkBoxingAssign(pass *Pass, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return // multi-value RHS: conversion is from a call result; covered at the call
	}
	for i, lhs := range as.Lhs {
		lt := pass.TypeOf(lhs)
		if lt == nil || !types.IsInterface(lt.Underlying()) {
			continue
		}
		if boxes(pass, as.Rhs[i], pass.TypeOf(as.Rhs[i])) {
			pass.Report(as.Rhs[i].Pos(), "assignment boxes a non-pointer %s into interface %s (allocates)", pass.TypeOf(as.Rhs[i]), lt)
		}
	}
}

func checkBoxingValueSpec(pass *Pass, vs *ast.ValueSpec) {
	if vs.Type == nil || len(vs.Values) == 0 {
		return
	}
	lt := pass.TypeOf(vs.Type)
	if lt == nil || !types.IsInterface(lt.Underlying()) {
		return
	}
	for _, v := range vs.Values {
		if boxes(pass, v, pass.TypeOf(v)) {
			pass.Report(v.Pos(), "declaration boxes a non-pointer %s into interface %s (allocates)", pass.TypeOf(v), lt)
		}
	}
}

func checkBoxingReturn(pass *Pass, fn *ast.FuncDecl, ret *ast.ReturnStmt) {
	sig, ok := pass.TypeOf(fn.Name).(*types.Signature)
	if !ok || sig.Results().Len() != len(ret.Results) {
		return
	}
	for i, r := range ret.Results {
		rt := sig.Results().At(i).Type()
		if types.IsInterface(rt.Underlying()) && boxes(pass, r, pass.TypeOf(r)) {
			pass.Report(r.Pos(), "return boxes a non-pointer %s into interface %s (allocates)", pass.TypeOf(r), rt)
		}
	}
}

// capturedVar returns the name of a variable declared in fn but outside
// lit that lit's body references ("" when lit captures nothing).
// Package-level references are not captures.
func capturedVar(pass *Pass, fn *ast.FuncDecl, lit *ast.FuncLit) string {
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		pos := v.Pos()
		if pos >= fn.Pos() && pos <= fn.End() && (pos < lit.Pos() || pos > lit.End()) {
			name = v.Name()
			return false
		}
		return true
	})
	return name
}

// checkAppend flags appends whose base slice cannot be scratch-backed:
// growth of a fresh local always allocates; appends into buffers that
// derive from struct fields, parameters, or arena helpers amortize to
// zero capacity growth and are the sanctioned pattern.
func checkAppend(pass *Pass, call *ast.CallExpr, scratch map[types.Object]bool) {
	if len(call.Args) == 0 {
		return
	}
	if !scratchBacked(pass, call.Args[0], scratch) {
		pass.Report(call.Pos(), "append grows a non-scratch slice in hot path (base is not derived from a field, parameter, or arena buffer)")
	}
}

// scratchDerived computes the set of local variables of fn whose value
// derives from scratch-backed storage: parameters and receivers to
// start, then a forward pass over simple assignments (x := expr,
// x = expr) propagating the property. The analysis is intentionally
// syntactic and conservative — a variable not provably scratch-backed
// is treated as fresh.
func scratchDerived(pass *Pass, fn *ast.FuncDecl) map[types.Object]bool {
	allowed := map[types.Object]bool{}
	addFieldList := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, n := range f.Names {
				if obj := pass.TypesInfo.Defs[n]; obj != nil {
					allowed[obj] = true
				}
			}
		}
	}
	addFieldList(fn.Recv)
	addFieldList(fn.Type.Params)
	addFieldList(fn.Type.Results)

	// Forward propagation in source order; two passes so a use-before-
	// reassign in loops settles.
	for range 2 {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.ObjectOf(id)
				if obj == nil {
					continue
				}
				if scratchBacked(pass, as.Rhs[i], allowed) {
					allowed[obj] = true
				}
			}
			return true
		})
	}
	return allowed
}

// scratchBacked reports whether expr's backing storage derives from a
// struct field, an allowed variable, or an arena helper call.
func scratchBacked(pass *Pass, expr ast.Expr, allowed map[types.Object]bool) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		// Any field access: scratch buffers live in structs.
		_ = e
		return true
	case *ast.Ident:
		if obj := pass.ObjectOf(e); obj != nil {
			return allowed[obj]
		}
		return false
	case *ast.SliceExpr:
		return scratchBacked(pass, e.X, allowed)
	case *ast.IndexExpr:
		return scratchBacked(pass, e.X, allowed)
	case *ast.StarExpr:
		return scratchBacked(pass, e.X, allowed)
	case *ast.CallExpr:
		if isArenaCall(pass, e) {
			return true
		}
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := pass.ObjectOf(id).(*types.Builtin); ok && b.Name() == "append" && len(e.Args) > 0 {
				return scratchBacked(pass, e.Args[0], allowed)
			}
		}
		return false
	}
	return false
}

// isArenaCall reports a call to the sanctioned buffer-growth helpers:
// arena.Grow, arena.Zeroed, and knapsack.GeomAppend (qualified or
// package-local).
func isArenaCall(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Name() {
	case "arena":
		return fn.Name() == "Grow" || fn.Name() == "Zeroed"
	case "knapsack":
		return fn.Name() == "GeomAppend"
	}
	return false
}
