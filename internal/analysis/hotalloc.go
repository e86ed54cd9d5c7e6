package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc flags, inside functions marked with the //sched:hotpath
// directive, the allocations the compiler's escape analysis cannot
// report: ones that happen at run time even when nothing escapes. It
// is one of three gates on the zero-allocation scratch discipline
// (DESIGN.md §6). cmd/escapegate owns heap escapes — every make, new,
// literal, closure or boxed value the compiler moves to the heap,
// with the compiler's own reason — and the AllocsPerRun=0 tests prove
// the property at one instance size. Escape analysis cannot see
// growth and copying at run time, so this analyzer flags:
//
//   - append growing a non-scratch slice (one whose backing does not
//     derive from a parameter, receiver or result — through any chain
//     of fields and indexes — or from arena.Grow/Zeroed: growth from
//     nothing always allocates, a field of a fresh local or package
//     variable included; appends into Reset-truncated scratch buffers
//     amortize to zero and are allowed)
//   - map creation, by make(map…) or a map literal (a map that does
//     not escape still allocates buckets as it grows)
//   - string ↔ []byte / []rune conversions (a copy, on the heap once
//     it outgrows the compiler's small stack buffer)
//   - go and defer statements
//
// The table of which gate fires on which mutation is in
// docs/PERFORMANCE.md ("Three allocation gates"). Deliberate cold
// paths are annotated in place with //schedlint:ignore hotalloc <why>.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid the run-time allocations escape analysis cannot see in //sched:hotpath functions",
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
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Report(n.Pos(), "go statement in hot path (spawns a goroutine)")
		case *ast.DeferStmt:
			pass.Report(n.Pos(), "defer in hot path (may allocate a defer record)")
		case *ast.CompositeLit:
			if isMap(pass.TypeOf(n)) {
				pass.Report(n.Pos(), "map literal in hot path allocates")
			}
		case *ast.CallExpr:
			checkHotCall(pass, n, scratch)
		}
		return true
	})
}

// checkHotCall handles the make(map…) and append builtins and the
// string ↔ bytes conversions.
func checkHotCall(pass *Pass, call *ast.CallExpr, scratch map[types.Object]bool) {
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		at := pass.TypeOf(call.Args[0])
		if at == nil {
			return
		}
		tu, au := tv.Type.Underlying(), at.Underlying()
		if isString(tu) && isByteOrRuneSlice(au) || isString(au) && isByteOrRuneSlice(tu) {
			pass.Report(call.Pos(), "string/slice conversion in hot path allocates")
		}
		return
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return
	}
	b, ok := pass.ObjectOf(id).(*types.Builtin)
	if !ok {
		return
	}
	switch b.Name() {
	case "make":
		if isMap(pass.TypeOf(call)) {
			pass.Report(call.Pos(), "make(map) in hot path allocates")
		}
	case "append":
		if len(call.Args) > 0 && !scratchBacked(pass, call.Args[0], scratch) {
			pass.Report(call.Pos(), "append grows a non-scratch slice in hot path (base is not derived from a parameter, receiver, or arena buffer)")
		}
	}
}

func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
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

// scratchBacked reports whether expr's backing storage derives from an
// allowed variable (through any chain of fields, indexes, slices and
// address-of) or an arena helper call. A field of a fresh local or a package-level
// variable is not scratch: it grows from nothing like the variable.
func scratchBacked(pass *Pass, expr ast.Expr, allowed map[types.Object]bool) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		return scratchBacked(pass, e.X, allowed)
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
	case *ast.UnaryExpr:
		return e.Op == token.AND && scratchBacked(pass, e.X, allowed)
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
