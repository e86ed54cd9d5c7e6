package analysis

import (
	"go/ast"
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
//     There is no exemption: a library function that wants a default
//     context takes one from its caller.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "context must propagate: no dropped ctx when a Ctx variant exists, no context.Background/TODO in library code",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	isMain := pass.Pkg.Name() == "main"
	for _, f := range pass.Files {
		// Rule 2: Background/TODO anywhere in a library file.
		if !isMain {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name := ctxRootName(pass, call); name != "" {
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
