package analysis

import (
	"go/ast"
)

// ResetCheck guards the reuse discipline of the zero-allocation scratch
// machinery (PR 3): a Reset method exists so a value can be recycled
// across scheduling calls, which means Reset must account for every
// field that can alias or retain memory — slices, maps, and pointers.
// A field added to the struct but forgotten in Reset leaks state from
// one call into the next; that bug class is invisible to the unit tests
// (the first call always passes) and was the root cause of the stale
// knapsack-pair carryover this PR fixes.
//
// The rule is flow-sensitive (PR 10): for each named struct type with
// a Reset method declared in the same package, every slice, map, and
// pointer field must be mentioned (as recv.field) on EVERY path from
// entry to return — truncated, nilled, reassigned, read in a
// condition, or handed to a helper. The must-touched set is propagated
// over the CFG (cfg.go) with intersection at merges, so
// `if cond { r.buf = nil }` no longer counts as clearing buf: the
// !cond path returns with the stale slice, which is exactly the
// carryover bug the structural version of this check missed.
// Assigning the whole struct (*r = T{}) satisfies all fields at once.
// Scalar, array, struct, func, chan, and interface fields are exempt:
// they either cannot retain heap memory across calls or (func/chan/
// interface) are configuration rather than scratch state.
var ResetCheck = &Analyzer{
	Name: "resetcheck",
	Doc:  "Reset methods must touch every slice, map, and pointer field of their receiver struct",
	Run:  runResetCheck,
}

func runResetCheck(pass *Pass) error {
	structs := map[string]*ast.StructType{}
	var resets []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if st, ok := ts.Type.(*ast.StructType); ok {
						structs[ts.Name.Name] = st
					}
				}
			case *ast.FuncDecl:
				if d.Name.Name == "Reset" && d.Recv != nil && d.Body != nil {
					resets = append(resets, d)
				}
			}
		}
	}
	for _, fn := range resets {
		recvName, typeName := receiverInfo(fn)
		st, ok := structs[typeName]
		if !ok {
			continue // receiver type declared in another file set or not a struct
		}
		checkReset(pass, fn, recvName, typeName, st)
	}
	return nil
}

// receiverInfo extracts the receiver variable name and the base type
// name, unwrapping pointers and generic instantiations (Heap[T]).
func receiverInfo(fn *ast.FuncDecl) (recvName, typeName string) {
	field := fn.Recv.List[0]
	if len(field.Names) > 0 {
		recvName = field.Names[0].Name
	}
	t := field.Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return recvName, tt.Name
		default:
			return recvName, ""
		}
	}
}

// retentiveFields lists the slice/map/pointer fields of st — the ones
// Reset is obliged to touch.
func retentiveFields(st *ast.StructType) []*ast.Ident {
	var out []*ast.Ident
	for _, field := range st.Fields.List {
		if !isRetentiveType(field.Type) {
			continue
		}
		out = append(out, field.Names...) // embedded (unnamed) retentive fields don't occur here
	}
	return out
}

func isRetentiveType(t ast.Expr) bool {
	switch tt := t.(type) {
	case *ast.ArrayType:
		return tt.Len == nil // slice, not array
	case *ast.MapType:
		return true
	case *ast.StarExpr:
		return true
	}
	return false
}

// wholeStructKey stands for *r = T{} in the must-touched set (field
// names mentioned on every path so far).
const wholeStructKey = "*"

// nodeTouches collects the recv.field mentions and whole-struct
// assignments of one CFG node. Function literals are included, as in
// the structural version: handing the receiver to a closure counts.
func nodeTouches(n ast.Node, recvName string) []string {
	var out []string
	walk := func(m ast.Node) {
		ast.Inspect(m, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.SelectorExpr:
				if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && id.Name == recvName {
					out = append(out, x.Sel.Name)
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if star, ok := ast.Unparen(lhs).(*ast.StarExpr); ok {
						if id, ok := ast.Unparen(star.X).(*ast.Ident); ok && id.Name == recvName {
							out = append(out, wholeStructKey)
						}
					}
				}
			}
			return true
		})
	}
	switch n := n.(type) {
	case rangeHeader:
		if n.Key != nil {
			walk(n.Key)
		}
		if n.Value != nil {
			walk(n.Value)
		}
		walk(n.X)
	default:
		walk(n)
	}
	return out
}

// checkReset verifies fn mentions each retentive field of st on every
// path to return.
func checkReset(pass *Pass, fn *ast.FuncDecl, recvName, typeName string, st *ast.StructType) {
	fields := retentiveFields(st)
	if len(fields) == 0 || recvName == "" {
		return
	}
	g := cfgOf(pass.owner, fn.Body)
	cache := map[ast.Node][]string{}
	touches := func(n ast.Node) []string {
		ts, ok := cache[n]
		if !ok {
			ts = nodeTouches(n, recvName)
			cache[n] = ts
		}
		return ts
	}
	in := forward(g, flow[string, bool]{node: func(n ast.Node, ts facts[string, bool], _ bool) {
		for _, name := range touches(n) {
			ts[name] = true
		}
	}}, facts[string, bool]{})
	atExit := in[g.exit.index]
	if atExit == nil {
		return // no path reaches return (e.g. infinite serve loop)
	}
	if atExit[wholeStructKey] {
		return
	}
	for _, f := range fields {
		if !atExit[f.Name] {
			pass.Report(fn.Pos(), "Reset on %s does not touch field %q on every path (%s retains memory across reuse); truncate, nil, or justify", typeName, f.Name, retentiveKind(fieldType(st, f.Name)))
		}
	}
}

func fieldType(st *ast.StructType, name string) ast.Expr {
	for _, field := range st.Fields.List {
		for _, id := range field.Names {
			if id.Name == name {
				return field.Type
			}
		}
	}
	return nil
}

func retentiveKind(t ast.Expr) string {
	switch tt := t.(type) {
	case *ast.ArrayType:
		if tt.Len == nil {
			return "slice"
		}
	case *ast.MapType:
		return "map"
	case *ast.StarExpr:
		return "pointer"
	}
	return "field"
}
