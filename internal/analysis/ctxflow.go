package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CtxFlow enforces the context-first discipline of the PR 2 API
// redesign: cancellation must flow from the public Client entry points
// down to every probe loop, never be silently dropped on the way.
//
// Two rules:
//
//  1. Inside a function that receives a context.Context, a call to a
//     callee F that does NOT take a context is flagged when a sibling
//     FCtx (same package scope, or same method set for methods) exists
//     that does: the ctx-capable variant must be used, with the
//     caller's context.
//
//  2. context.Background() / context.TODO() are forbidden outside
//     package main and test files: a library function that conjures
//     its own root context detaches its callees from cancellation.
//     One flow-aware exemption: a nil default, `ctx =
//     context.Background()` dominated by an `if ctx == nil` check of
//     the same ctx parameter — the documented nil-means-no-cancellation
//     contract, not a dropped caller context.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "context must propagate: no dropped ctx when a Ctx variant exists, no context.Background/TODO in library code",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	isMain := pass.Pkg.Name() == "main"
	for _, f := range pass.Files {
		// Rule 2: Background/TODO anywhere in a library file, minus the
		// nil-default pattern.
		if !isMain {
			exempt := ctxRootExemptions(pass, f)
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name := ctxRootName(pass, call); name != "" && !exempt[call] {
					pass.Report(call.Pos(), "context.%s() in library code detaches callees from cancellation; accept and propagate a ctx instead", name)
				}
				return true
			})
		}
		// Rule 1: within ctx-taking functions.
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !funcTakesCtx(pass, fn) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok && lit != nil {
					return true // closures inherit the check; keep walking
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				checkCtxCall(pass, call)
				return true
			})
		}
	}
	return nil
}

// ctxRootExemptions collects the Background/TODO calls in f that are
// legitimate under rule 2's nil-default exemption.
func ctxRootExemptions(pass *Pass, f *ast.File) map[*ast.CallExpr]bool {
	exempt := map[*ast.CallExpr]bool{}
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
			markNilDefaults(pass, fn.Body, exempt)
		}
	}
	return exempt
}

// markNilDefaults exempts `ctx = context.Background()` (or TODO)
// assignments dominated by an `if ctx == nil` check of the same
// context-typed variable: the documented nil-means-no-cancellation
// default, not a dropped context.
func markNilDefaults(pass *Pass, body *ast.BlockStmt, exempt map[*ast.CallExpr]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		bin, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
		if !ok || bin.Op != token.EQL {
			return true
		}
		var guarded *ast.Ident
		switch {
		case isNilIdent(bin.Y):
			guarded, _ = ast.Unparen(bin.X).(*ast.Ident)
		case isNilIdent(bin.X):
			guarded, _ = ast.Unparen(bin.Y).(*ast.Ident)
		}
		if guarded == nil || !isNamed(pass.TypeOf(guarded), "context", "Context") {
			return true
		}
		obj := pass.ObjectOf(guarded)
		if obj == nil {
			return true
		}
		for _, s := range ifs.Body.List {
			as, ok := s.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				continue
			}
			lhs, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
			if !ok || pass.ObjectOf(lhs) != obj {
				continue
			}
			if root, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok && ctxRootName(pass, root) != "" {
				exempt[root] = true
			}
		}
		return true
	})
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// ctxRootName returns "Background"/"TODO" for calls to the context
// package's root constructors, else "".
func ctxRootName(pass *Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return fn.Name()
	}
	return ""
}

// funcTakesCtx reports whether fn has a context.Context parameter.
func funcTakesCtx(pass *Pass, fn *ast.FuncDecl) bool {
	sig, ok := pass.TypeOf(fn.Name).(*types.Signature)
	return ok && signatureTakesCtx(sig)
}

func signatureTakesCtx(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isNamed(sig.Params().At(i).Type(), "context", "Context") {
			return true
		}
	}
	return false
}

// checkCtxCall flags a call to a non-ctx function when a ctx-taking
// sibling named <callee>Ctx exists.
func checkCtxCall(pass *Pass, call *ast.CallExpr) {
	callee := calleeFunc(pass.TypesInfo, call)
	if callee == nil {
		return
	}
	if strings.HasSuffix(callee.Name(), "Ctx") || signatureTakesCtx(callee.Type().(*types.Signature)) {
		return
	}
	sibling := ctxSibling(callee)
	if sibling == nil {
		return
	}
	pass.Report(call.Pos(), "call to %s drops the caller's context; use %s and pass ctx", callee.Name(), sibling.Name())
}

// calleeFunc resolves the called function or method, or nil for
// builtins, conversions, and indirect calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.ObjectOf(fun).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.ObjectOf(fun.Sel).(*types.Func)
		return fn
	}
	return nil
}

// ctxSibling finds a function <name>Ctx that takes a context, in the
// callee's package scope (functions) or its receiver's method set
// (methods). Works across packages: imported scopes come from export
// data.
func ctxSibling(callee *types.Func) *types.Func {
	want := callee.Name() + "Ctx"
	sig := callee.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		// Method: search the receiver base type's method set.
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return nil
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if m.Name() == want && signatureTakesCtx(m.Type().(*types.Signature)) {
				return m
			}
		}
		return nil
	}
	if callee.Pkg() == nil {
		return nil
	}
	if obj := callee.Pkg().Scope().Lookup(want); obj != nil {
		if fn, ok := obj.(*types.Func); ok && signatureTakesCtx(fn.Type().(*types.Signature)) {
			return fn
		}
	}
	return nil
}
