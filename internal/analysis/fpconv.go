package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FPConv flags the PR 5 off-by-one bug class: converting a float64
// arithmetic result straight to an integer. Expressions like b·(1−ρ)
// or 16n/ε whose exact value is an integer k routinely evaluate to
// k∓(a few ulps) in float64; int(math.Floor(·)) then lands on k−1 and
// int(math.Ceil(·)) on k+1 — the off-by-ones that made
// Threshold(1/49) = 50 and CompressedProcs(20, 0.05) = 18 before PR 5
// hardened internal/compress. Use the epsilon-guarded
// compress.FloorInt / compress.CeilInt instead, or annotate why the
// exact integer does not matter at this site (e.g. both neighbours are
// probed, or the value only bounds an iteration count).
//
// Flagged patterns:
//
//   - int-kind conversion of a math.Floor / math.Ceil call:
//     int(math.Floor(x)), int64(math.Ceil(x))
//   - int-kind conversion of a float arithmetic expression:
//     int(x*y), int(a/b+c)
//   - math.Floor / math.Ceil applied directly to a float arithmetic
//     expression: math.Floor(p/K)
//
// compress's own floorInt/ceilInt do not trigger the patterns (they
// floor a plain variable and apply the guard before converting), so
// deleting the guard and inlining int(math.Floor(...)) at a call site
// fails the build.
var FPConv = &Analyzer{
	Name: "fpconv",
	Doc:  "forbid unguarded float64→int conversions of arithmetic expressions (use compress.FloorInt/CeilInt)",
	Run:  runFPConv,
}

func runFPConv(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			arg := ast.Unparen(call.Args[0])
			// Pattern 3: math.Floor/Ceil over float arithmetic.
			if name := floorCeilName(pass, call); name != "" {
				if isFloatArith(pass, arg) {
					pass.Report(call.Pos(), "math.%s of a float arithmetic expression: a result a few ulps off an integer rounds to the wrong side; use compress.FloorInt/CeilInt or justify", name)
				}
				return true
			}
			// Patterns 1 and 2: integer conversion.
			tv, ok := pass.TypesInfo.Types[call.Fun]
			if !ok || !tv.IsType() || !isIntKind(tv.Type) {
				return true
			}
			if inner, ok := arg.(*ast.CallExpr); ok {
				if name := floorCeilName(pass, inner); name != "" {
					pass.Report(call.Pos(), "int conversion of math.%s: unguarded float→int rounding (the PR 5 off-by-one class); use compress.FloorInt/CeilInt or justify", name)
					return true
				}
			}
			if isFloatArith(pass, arg) {
				pass.Report(call.Pos(), "int conversion truncates a float arithmetic expression: a few ulps below an integer truncate to one less; use compress.FloorInt/CeilInt or justify")
			}
			return true
		})
	}
	return nil
}

// floorCeilName returns "Floor"/"Ceil" when call invokes math.Floor or
// math.Ceil, else "".
func floorCeilName(pass *Pass, call *ast.CallExpr) string {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "math" {
		return ""
	}
	if fn.Name() == "Floor" || fn.Name() == "Ceil" {
		return fn.Name()
	}
	return ""
}

// isFloatArith reports whether e is a float-typed arithmetic binary
// expression (+, -, *, /), possibly parenthesized. Constant-folded
// expressions are exempt: the compiler evaluates them exactly.
func isFloatArith(pass *Pass, e ast.Expr) bool {
	be, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch be.Op {
	case token.ADD, token.SUB, token.MUL, token.QUO:
	default:
		return false
	}
	tv, ok := pass.TypesInfo.Types[be]
	if !ok || tv.Value != nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isIntKind(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
