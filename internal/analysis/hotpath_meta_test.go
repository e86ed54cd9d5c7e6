package analysis

// The hotpath meta-test: a //sched:hotpath directive is a claim that
// the function runs on the scheduling hot path, which is what justifies
// gating it with the hotalloc analyzer and the escapegate snapshot.
// This test keeps the claims honest — every marked function must be
// reachable from the hot entry points (core.ScheduleScratchCtx and the
// online runtime's New/Arrive/Drain) in an over-approximated call
// graph. A directive on genuinely cold code would silently impose
// hot-path rules where they don't belong; this test turns it into a
// failure with the orphaned function named.
//
// The call graph is name-keyed (types.Func.FullName) because each
// package typechecks against export data, so object identity does not
// hold across packages. Edges:
//
//   - static calls, by full name
//   - references to a function or method outside call position
//     (function values, method values) — these model the solve/norm
//     callback indirection in fast and knapsack
//   - interface-method calls, over-approximated to every function with
//     the same bare name (this is how dual.Algorithm.Try reaches the
//     concrete Try methods)

import (
	"go/ast"
	"go/types"
	"sort"
	"sync"
	"testing"
)

var (
	repoOnce sync.Once
	repoPkgs []*Package
	repoErr  error
)

// loadRepo typechecks the whole repository once per test binary; both
// the meta-test and the dogfood test use it.
func loadRepo(t *testing.T) []*Package {
	t.Helper()
	repoOnce.Do(func() {
		repoPkgs, repoErr = Load(".", "repro/...")
	})
	if repoErr != nil {
		t.Fatal(repoErr)
	}
	return repoPkgs
}

type callGraph struct {
	edges     map[string]map[string]bool // caller full name → callee full names
	nameEdges map[string]map[string]bool // caller full name → bare callee names (interface calls)
	byBare    map[string][]string        // bare name → full names with a body
	hotpath   map[string]bool            // full names carrying //sched:hotpath
}

func buildCallGraph(pkgs []*Package) *callGraph {
	g := &callGraph{
		edges:     map[string]map[string]bool{},
		nameEdges: map[string]map[string]bool{},
		byBare:    map[string][]string{},
		hotpath:   map[string]bool{},
	}
	addEdge := func(m map[string]map[string]bool, from, to string) {
		if m[from] == nil {
			m[from] = map[string]bool{}
		}
		m[from][to] = true
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				def, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				caller := def.FullName()
				g.byBare[fn.Name.Name] = append(g.byBare[fn.Name.Name], caller)
				if HasHotpathDirective(fn) {
					g.hotpath[caller] = true
				}
				callPos := map[ast.Expr]bool{}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						callPos[ast.Unparen(call.Fun)] = true
					}
					return true
				})
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					var id *ast.Ident
					var inCall bool
					switch e := n.(type) {
					case *ast.Ident:
						id, inCall = e, callPos[ast.Expr(e)]
					case *ast.SelectorExpr:
						id, inCall = e.Sel, callPos[ast.Expr(e)]
					default:
						return true
					}
					callee, ok := pkg.Info.Uses[id].(*types.Func)
					if !ok {
						return true
					}
					sig, ok := callee.Type().(*types.Signature)
					if !ok {
						return true
					}
					if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type().Underlying()) {
						// Interface dispatch: over-approximate by bare name.
						addEdge(g.nameEdges, caller, callee.Name())
					} else {
						addEdge(g.edges, caller, callee.FullName())
					}
					_ = inCall // references and calls produce the same edge
					return true
				})
			}
		}
	}
	return g
}

// reachable floods the graph from the roots.
func (g *callGraph) reachable(roots []string) map[string]bool {
	seen := map[string]bool{}
	queue := append([]string(nil), roots...)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		for next := range g.edges[cur] {
			if !seen[next] {
				queue = append(queue, next)
			}
		}
		for bare := range g.nameEdges[cur] {
			for _, next := range g.byBare[bare] {
				if !seen[next] {
					queue = append(queue, next)
				}
			}
		}
	}
	return seen
}

// hotRoots locates the hot entry points by package path and bare name,
// so the test does not hardcode FullName formatting.
func hotRoots(t *testing.T, pkgs []*Package) []string {
	want := map[string][]string{
		"repro/internal/core":   {"ScheduleScratchCtx"},
		"repro/internal/online": {"New", "Arrive", "Drain"},
	}
	var roots []string
	for _, pkg := range pkgs {
		names, ok := want[pkg.PkgPath]
		if !ok {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				for _, n := range names {
					if fn.Name.Name == n {
						if def, ok := pkg.Info.Defs[fn.Name].(*types.Func); ok {
							roots = append(roots, def.FullName())
						}
					}
				}
			}
		}
	}
	if len(roots) < 4 {
		t.Fatalf("found only %d hot-path roots %v; entry points renamed?", len(roots), roots)
	}
	return roots
}

func TestHotpathReachableFromEntryPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole repository")
	}
	pkgs := loadRepo(t)
	g := buildCallGraph(pkgs)
	if len(g.hotpath) == 0 {
		t.Fatal("no //sched:hotpath directives found in the tree")
	}
	seen := g.reachable(hotRoots(t, pkgs))
	var orphans []string
	for fn := range g.hotpath {
		if !seen[fn] {
			orphans = append(orphans, fn)
		}
	}
	sort.Strings(orphans)
	for _, fn := range orphans {
		t.Errorf("%s carries //sched:hotpath but is not reachable from the scheduling entry points; cold code must not be marked hot", fn)
	}
	t.Logf("%d hotpath functions, all reachable from %d entry points", len(g.hotpath), 4)
}
