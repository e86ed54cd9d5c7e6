package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroLeak requires every go statement to have a statically visible
// join path. A goroutine with no way to signal completion cannot be
// waited for: Close() can return while workers still touch pooled
// scratch, and -race only sees the interleavings the tests produce.
// The rule is intentionally syntactic — the spawned function literal's
// body must contain at least one completion signal:
//
//   - a sync.WaitGroup Done() call (typically deferred),
//   - a channel close, send, or receive (done-channels and
//     result-channel handoffs both qualify; <-ctx.Done() is a
//     receive),
//   - a range over a channel (worker loops joined by closing the
//     feed), or
//   - a select statement (communication-driven lifetime).
//
// Spawning a named function (`go fn()`) is flagged regardless: even if
// fn signals internally, the join is invisible at the spawn site,
// which is where the next reader looks. Wrap the call in a literal
// that owns the signal, or suppress with a justified
// //schedlint:ignore.
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc:  "every go statement needs a statically visible join path (WaitGroup.Done, channel op, or select) in the spawned literal",
	Run:  runGoroLeak,
}

func runGoroLeak(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
			if !ok {
				pass.Report(g.Pos(), "go statement spawns a named function with no visible join path; wrap it in a literal that signals completion (WaitGroup.Done or a channel op)")
				return true
			}
			if !hasJoinSignal(pass, lit.Body) {
				pass.Report(g.Pos(), "goroutine has no statically visible join path (no WaitGroup.Done, channel close/send/receive, range-over-channel, or select); it can outlive its owner")
			}
			return true
		})
	}
	return nil
}

// hasJoinSignal reports whether the goroutine body contains a
// completion signal.
func hasJoinSignal(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := pass.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if b, ok := pass.ObjectOf(fun).(*types.Builtin); ok && b.Name() == "close" {
					found = true
				}
			case *ast.SelectorExpr:
				if fun.Sel.Name == "Done" && isNamed(pass.TypeOf(fun.X), "sync", "WaitGroup") {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
