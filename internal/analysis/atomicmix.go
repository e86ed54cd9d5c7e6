package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// AtomicMix bans the untyped sync/atomic API: every package function
// (AddInt64, LoadUint64, CompareAndSwapPointer, …, called or taken as
// a value) and the type atomic.Value. The untyped API is where mixed
// access lives: a counter bumped by atomic.AddUint64 in one place and
// read plainly on a fast path in another is a data race, and an
// atomic.Value panics when a second concrete type is stored. The typed
// atomics make both impossible — their value is unexported, and
// atomic.Pointer[T] has one element type — and `go vet`'s copylocks
// flags every copy of one, because each embeds a noCopy.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc:  "no untyped sync/atomic: package functions (AddInt64, LoadPointer, …) and atomic.Value are banned in favour of the typed atomics (atomic.Int64, atomic.Pointer[T], …)",
	Run:  banUntypedAtomics,
}

func banUntypedAtomics(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			switch obj := pass.TypesInfo.Uses[id].(type) {
			case *types.Func:
				if obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" && obj.Type().(*types.Signature).Recv() == nil {
					pass.Report(id.Pos(), "untyped sync/atomic.%s: a plain access to the same word elsewhere is a data race; use %s", obj.Name(), typedAtomic(obj.Name()))
				}
			case *types.TypeName:
				if isNamed(obj.Type(), "sync/atomic", "Value") {
					pass.Report(id.Pos(), "atomic.Value panics when a second concrete type is stored; use atomic.Pointer[T]")
				}
			}
			return true
		})
	}
	return nil
}

// typedAtomic names the typed replacement for a sync/atomic function.
func typedAtomic(fn string) string {
	for _, t := range []string{"Int32", "Int64", "Uint32", "Uint64", "Uintptr"} {
		if strings.HasSuffix(fn, t) {
			return "atomic." + t
		}
	}
	return "atomic.Pointer[T]"
}
