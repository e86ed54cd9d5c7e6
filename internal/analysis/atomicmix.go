package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// AtomicMix enforces the all-or-nothing rule of sync/atomic: a field
// or package variable accessed through the sync/atomic functions
// anywhere in the module must be accessed atomically everywhere in the
// module. One plain fast-path read next to an atomic increment is the
// PR 9 service.Stats bug class — a data race the race detector only
// sees on the schedules the tests happen to produce, and a torn read
// on 32-bit targets regardless. The check is whole-module (RunModule):
// the atomic site and the plain site are usually in different
// functions and occasionally in different packages.
//
// Three rules:
//
//  1. Mixed access: for every field/package-var that appears as
//     &x in a sync/atomic function call, every other read or write of
//     it must be atomic too. Accesses through provably fresh locals
//     (constructors — storage not yet shared) and composite-literal
//     keys are exempt.
//  2. atomic.Value store consistency: one atomic.Value must store one
//     concrete type over its lifetime; Store of a second type panics
//     at run time ("inconsistently typed value").
//  3. Typed atomics (atomic.Int64, atomic.Bool, …) and atomic.Value
//     are address-based: copying one (assignment, range value, or
//     by-value call argument) silently forks the counter and the
//     copy's updates are lost. vet's copylocks catches some of these
//     via noCopy; atomic.Value has no noCopy, so it is flagged here.
var AtomicMix = &Analyzer{
	Name:      "atomicmix",
	Doc:       "a field accessed via sync/atomic anywhere must be accessed atomically everywhere; consistent atomic.Value types; no atomic copies",
	RunModule: runAtomicMix,
}

// amSite is one access to a candidate object.
type amSite struct {
	pos   token.Position
	how   string // "atomic.LoadUint64", "read", "write"
	write bool
}

type atomicMixState struct {
	keys   map[types.Object]string
	atomic map[string][]amSite
	plain  map[string][]amSite
	stored map[string]map[string]token.Position // atomic.Value key → concrete stored type → first site
	mp     *ModulePass
}

func runAtomicMix(mp *ModulePass) error {
	st := &atomicMixState{
		keys:   map[types.Object]string{},
		atomic: map[string][]amSite{},
		plain:  map[string][]amSite{},
		stored: map[string]map[string]token.Position{},
		mp:     mp,
	}
	// Atomic/plain pairs can only unify within one package: a foreign
	// package's view of a field is a different types.Object (export
	// data), so its accesses never resolve to the defining package's
	// key. Packages that never import sync/atomic therefore cannot
	// contribute an atomic site and need no key or access sweep — only
	// the copy check (rule 3), which sees sync/atomic named types
	// through other packages' structs.
	for _, pkg := range mp.Pkgs {
		if importsSyncAtomic(pkg) {
			collectObjKeys(pkg, st.keys, nil)
		}
	}
	for _, pkg := range mp.Pkgs {
		st.sweep(pkg, importsSyncAtomic(pkg))
	}
	st.report()
	return nil
}

// importsSyncAtomic reports whether any file of pkg imports
// sync/atomic directly.
func importsSyncAtomic(pkg *Package) bool {
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			if p, _ := importPathOf(imp); p == "sync/atomic" {
				return true
			}
		}
	}
	return false
}

// collectObjKeys maps every struct field and package-level variable of
// pkg to its stable cross-package key (pkg.Type.field / pkg.var),
// optionally filtered by type.
func collectObjKeys(pkg *Package, into map[types.Object]string, want func(types.Type) bool) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					ast.Inspect(sp.Type, func(n ast.Node) bool {
						stype, ok := n.(*ast.StructType)
						if !ok {
							return true
						}
						for _, field := range stype.Fields.List {
							if want != nil && !want(pkg.Info.TypeOf(field.Type)) {
								continue
							}
							for _, id := range field.Names {
								if obj := pkg.Info.Defs[id]; obj != nil {
									into[obj] = pkg.Name + "." + sp.Name.Name + "." + id.Name
								}
							}
						}
						return true
					})
				case *ast.ValueSpec:
					for _, id := range sp.Names {
						obj := pkg.Info.Defs[id]
						if obj != nil && (want == nil || want(obj.Type())) {
							into[obj] = pkg.Name + "." + id.Name
						}
					}
				}
			}
		}
	}
}

// sweep classifies every access to a candidate object in pkg. When
// fullSweep is false (the package never imports sync/atomic), only the
// copy check runs — see runAtomicMix.
func (st *atomicMixState) sweep(pkg *Package, fullSweep bool) {
	pass := &Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, TypesInfo: pkg.Info, owner: pkg}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fullSweep {
				w := &amWalker{st: st, pass: pass, pkg: pkg, fresh: freshLocals(pass, fd.Body)}
				w.stmtList(fd.Body.List)
				// Function literals share the enclosing fresh-local view:
				// atomicity, unlike lock state, does not reset per scope.
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						lw := &amWalker{st: st, pass: pass, pkg: pkg, fresh: w.fresh}
						lw.stmtList(lit.Body.List)
						return false
					}
					return true
				})
			}
			st.checkCopies(pass, pkg, fd.Body)
		}
	}
}

type amWalker struct {
	st    *atomicMixState
	pass  *Pass
	pkg   *Package
	fresh map[types.Object]bool
}

func (w *amWalker) stmtList(list []ast.Stmt) {
	for _, s := range list {
		w.node(s, false)
	}
}

// node walks in write/read context, intercepting sync/atomic calls so
// their &x arguments count as atomic — not plain — accesses.
func (w *amWalker) node(n ast.Node, write bool) {
	switch n := n.(type) {
	case nil:
	case *ast.AssignStmt:
		for _, l := range n.Lhs {
			w.node(l, true)
		}
		for _, r := range n.Rhs {
			w.node(r, false)
		}
	case *ast.IncDecStmt:
		w.node(n.X, true)
	case *ast.CallExpr:
		if name, ok := atomicFuncCall(w.pass, n); ok {
			for _, a := range n.Args {
				if u, isAddr := ast.Unparen(a).(*ast.UnaryExpr); isAddr && u.Op == token.AND {
					if obj := accessObj(w.pass, u.X); obj != nil {
						if key, isCand := w.st.keys[obj]; isCand {
							w.st.atomic[key] = append(w.st.atomic[key],
								amSite{pos: w.pkg.Fset.Position(u.Pos()), how: "atomic." + name})
							// The base chain is still plainly read.
							if sel, isSel := ast.Unparen(u.X).(*ast.SelectorExpr); isSel {
								w.node(sel.X, false)
							}
							continue
						}
					}
				}
				w.node(a, false)
			}
			return
		}
		if recvKey, argType, pos, ok := w.valueStore(n); ok {
			types, seen := w.st.stored[recvKey]
			if !seen {
				types = map[string]token.Position{}
				w.st.stored[recvKey] = types
			}
			if _, dup := types[argType]; !dup {
				types[argType] = pos
			}
			// fall through: receiver base and args still walked below
		}
		w.node(n.Fun, false)
		for _, a := range n.Args {
			w.node(a, false)
		}
	case *ast.SelectorExpr:
		// A method call's receiver (walked via Fun) selects the method
		// ident, not a field; field selections resolve to *types.Var.
		w.access(n.Sel, n, write)
		w.node(n.X, false)
	case *ast.Ident:
		w.access(n, n, write)
	case *ast.IndexExpr:
		w.node(n.X, write)
		w.node(n.Index, false)
	case *ast.StarExpr:
		w.node(n.X, write)
	case *ast.UnaryExpr:
		// &x outside a sync/atomic call escapes the address: anything
		// could happen through it, so count it as a (plain) write.
		w.node(n.X, n.Op == token.AND)
	case *ast.CompositeLit:
		for _, el := range n.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.node(kv.Value, false) // keys are construction, not access
				continue
			}
			w.node(el, false)
		}
	case *ast.FuncLit:
		// handled separately in sweep
	case *ast.KeyValueExpr:
		w.node(n.Value, false)
	case *ast.DeferStmt:
		w.node(n.Call, false)
	case *ast.GoStmt:
		w.node(n.Call, false)
	case *ast.RangeStmt:
		w.node(n.Key, true)
		w.node(n.Value, true)
		w.node(n.X, false)
		w.stmtList(n.Body.List)
	default:
		// Generic traversal for remaining statements/expressions.
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n {
				return true
			}
			switch m.(type) {
			case ast.Stmt, ast.Expr:
				w.node(m, write)
				return false
			}
			return true
		})
	}
}

// access records a plain read/write of a candidate object.
func (w *amWalker) access(id *ast.Ident, whole ast.Expr, write bool) {
	obj := w.pass.ObjectOf(id)
	if obj == nil {
		return
	}
	key, ok := w.st.keys[obj]
	if !ok {
		return
	}
	if sel, isSel := whole.(*ast.SelectorExpr); isSel {
		if root := rootObject(w.pass.TypesInfo, sel.X); root != nil && w.fresh[root] {
			return // constructor: storage not yet shared
		}
	}
	how := "read"
	if write {
		how = "write"
	}
	w.st.plain[key] = append(w.st.plain[key],
		amSite{pos: w.pkg.Fset.Position(id.Pos()), how: how, write: write})
}

// accessObj resolves &X's operand to the field/var object being
// atomically accessed.
func accessObj(pass *Pass, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return pass.ObjectOf(e.Sel)
	case *ast.Ident:
		return pass.ObjectOf(e)
	case *ast.IndexExpr:
		return accessObj(pass, e.X)
	}
	return nil
}

// atomicFuncCall reports whether call is a sync/atomic package
// function (LoadUint64, AddInt64, StorePointer, …) and returns its
// name.
func atomicFuncCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return "", false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return "", false // typed-atomic method, inherently consistent
	}
	return fn.Name(), true
}

// valueStore recognizes X.Store(v) / X.CompareAndSwap(old, new) on an
// atomic.Value field and returns the stored concrete type.
func (w *amWalker) valueStore(call *ast.CallExpr) (key, argType string, pos token.Position, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || !isAtomicValueType(w.pass.TypeOf(sel.X)) {
		return "", "", token.Position{}, false
	}
	var arg ast.Expr
	switch sel.Sel.Name {
	case "Store", "Swap":
		if len(call.Args) == 1 {
			arg = call.Args[0]
		}
	case "CompareAndSwap":
		if len(call.Args) == 2 {
			arg = call.Args[1]
		}
	}
	if arg == nil {
		return "", "", token.Position{}, false
	}
	obj := accessObj(w.pass, sel.X)
	if obj == nil {
		return "", "", token.Position{}, false
	}
	k, isCand := w.st.keys[obj]
	if !isCand {
		return "", "", token.Position{}, false
	}
	t := w.pass.TypeOf(arg)
	if t == nil {
		return "", "", token.Position{}, false
	}
	return k, t.String(), w.pkg.Fset.Position(call.Pos()), true
}

// isAtomicValueType reports sync/atomic.Value.
func isAtomicValueType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync/atomic" && named.Obj().Name() == "Value"
}

// isAtomicNamedType reports any named type of sync/atomic (Int64,
// Bool, Pointer[T], Value, …) whose values are address-based.
func isAtomicNamedType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync/atomic"
}

// checkCopies flags by-value uses of typed atomics: assignment reads,
// range-value copies, and by-value call arguments.
func (st *atomicMixState) checkCopies(pass *Pass, pkg *Package, body *ast.BlockStmt) {
	isValueRead := func(e ast.Expr) bool {
		switch ast.Unparen(e).(type) {
		case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			return true
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, r := range n.Rhs {
				if isAtomicNamedType(pass.TypeOf(r)) && isValueRead(r) {
					st.mp.Report(pkg.Fset.Position(r.Pos()),
						"assignment copies %s value; atomics are address-based — take a pointer instead", pass.TypeOf(r).String())
				}
			}
		case *ast.RangeStmt:
			if n.Value != nil {
				if t := pass.TypeOf(n.Value); isAtomicNamedType(t) {
					st.mp.Report(pkg.Fset.Position(n.Value.Pos()),
						"range copies %s values; iterate by index and address the element instead", t.String())
				}
			}
		case *ast.CallExpr:
			if _, isAtomicFn := atomicFuncCall(pass, n); isAtomicFn {
				return true
			}
			for _, a := range n.Args {
				if isAtomicNamedType(pass.TypeOf(a)) && isValueRead(a) {
					st.mp.Report(pkg.Fset.Position(a.Pos()),
						"passing %s by value copies it; atomics are address-based — pass a pointer", pass.TypeOf(a).String())
				}
			}
		}
		return true
	})
}

// report emits mixed-access and inconsistent-store diagnostics.
func (st *atomicMixState) report() {
	keys := make([]string, 0, len(st.atomic))
	for k := range st.atomic {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		plains := st.plain[k]
		if len(plains) == 0 {
			continue
		}
		atoms := st.atomic[k]
		sort.Slice(atoms, func(i, j int) bool { return posLess(atoms[i].pos, atoms[j].pos) })
		witness := atoms[0]
		sort.Slice(plains, func(i, j int) bool { return posLess(plains[i].pos, plains[j].pos) })
		for _, p := range plains {
			st.mp.Report(p.pos, "plain %s of %s, which is accessed via %s at %s; a field accessed atomically anywhere must be accessed atomically everywhere",
				p.how, k, witness.how, shortPos(witness.pos))
		}
	}
	vkeys := make([]string, 0, len(st.stored))
	for k := range st.stored {
		vkeys = append(vkeys, k)
	}
	sort.Strings(vkeys)
	for _, k := range vkeys {
		typesSeen := st.stored[k]
		if len(typesSeen) < 2 {
			continue
		}
		names := make([]string, 0, len(typesSeen))
		for t := range typesSeen {
			names = append(names, t)
		}
		// Report at the later sites: everything after the first distinct
		// type's store panics at run time.
		sort.Slice(names, func(i, j int) bool { return posLess(typesSeen[names[i]], typesSeen[names[j]]) })
		first := names[0]
		for _, t := range names[1:] {
			st.mp.Report(typesSeen[t], "%s stores %s here but %s at %s; atomic.Value requires one consistent concrete type",
				k, t, first, shortPos(typesSeen[first]))
		}
	}
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	return a.Line < b.Line
}
