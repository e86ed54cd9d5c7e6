package analysis

// Direct unit tests for the CFG + dataflow substrate. The golden
// corpora exercise it through the analyzers; these pin the structural
// contracts the analyzers rely on — branch-labelled edges, the
// must/may join distinction, loop back edges, unreachable exits — so a
// substrate regression fails here with a small reproducer instead of
// as a confusing corpus diff.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseBody parses `func f() { <src> }` and returns the body.
func parseBody(t *testing.T, src string) *ast.BlockStmt {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "t.go", "package p\nfunc f() {\n"+src+"\n}", parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return file.Decls[0].(*ast.FuncDecl).Body
}

// mustMentions runs a must-analysis (intersection join) that collects
// the identifiers named in call statements, and returns the converged
// exit in-state (nil when no path reaches the exit).
func mustMentions(g *cfg) facts[string, bool] {
	calls := func(n ast.Node) []string {
		var out []string
		if _, isHeader := n.(rangeHeader); isHeader {
			return nil
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok {
					out = append(out, id.Name)
				}
			}
			return true
		})
		return out
	}
	in := forward(g, flow[string, bool]{node: func(n ast.Node, st facts[string, bool], _ bool) {
		for _, name := range calls(n) {
			st[name] = true
		}
	}}, facts[string, bool]{})
	return in[g.exit.index]
}

func TestCFGBranchJoinIsIntersection(t *testing.T) {
	g := buildCFG(parseBody(t, `
		both()
		if cond {
			onlyThen()
		} else {
			onlyElse()
		}
		after()
	`))
	at := mustMentions(g)
	for _, want := range []string{"both", "after"} {
		if !at[want] {
			t.Errorf("%s called on every path but absent from exit state", want)
		}
	}
	for _, notWant := range []string{"onlyThen", "onlyElse"} {
		if at[notWant] {
			t.Errorf("%s called on one arm only but present in must-state at exit", notWant)
		}
	}
}

func TestCFGEarlyReturnJoinsAtExit(t *testing.T) {
	// The early-return path reaches exit having seen only guard();
	// the fall-through path adds late(). Must-state at exit is the
	// intersection: guard alone.
	g := buildCFG(parseBody(t, `
		guard()
		if cond {
			return
		}
		late()
	`))
	at := mustMentions(g)
	if !at["guard"] {
		t.Error("guard precedes both returns but is absent from exit state")
	}
	if at["late"] {
		t.Error("late is skipped by the early return but survived the exit join")
	}
}

func TestCFGLoopBodyDoesNotDominateExit(t *testing.T) {
	// A for-loop body may run zero times: its calls must not be in
	// the must-state at exit, while header work must.
	g := buildCFG(parseBody(t, `
		before()
		for i := 0; i < n; i++ {
			inside()
		}
		after()
	`))
	at := mustMentions(g)
	if at["inside"] {
		t.Error("loop body call treated as executing on every path (zero-trip path missed)")
	}
	if !at["before"] || !at["after"] {
		t.Error("straight-line calls around the loop missing from exit state")
	}
}

func TestCFGInfiniteLoopLeavesExitUnreachable(t *testing.T) {
	g := buildCFG(parseBody(t, `
		for {
			serve()
		}
	`))
	if st := mustMentions(g); st != nil {
		t.Errorf("exit of an infinite loop should be unreachable (nil state), got %v", st)
	}
}

func TestCFGBranchEdgesCarryCondition(t *testing.T) {
	// if !ok { ... } must produce edges whose condValue resolves to
	// (ok, false) into the then-branch and (ok, true) past it — the
	// refinement TryLock handling depends on.
	g := buildCFG(parseBody(t, `
		if !ok {
			bail()
		}
		done()
	`))
	var thenEdge, elseEdge bool
	for _, blk := range g.blocks {
		for _, e := range blk.succs {
			if e.cond == nil {
				continue
			}
			cond, when := condValue(e.cond, e.when)
			id, ok := cond.(*ast.Ident)
			if !ok || id.Name != "ok" {
				t.Errorf("condValue peeled to %T, want the bare ident ok", cond)
				continue
			}
			if when {
				elseEdge = true
			} else {
				thenEdge = true
			}
		}
	}
	if !thenEdge || !elseEdge {
		t.Errorf("missing branch edge: then(ok=false)=%v else(ok=true)=%v", thenEdge, elseEdge)
	}
}

func TestCFGRangeLoopEmitsHeader(t *testing.T) {
	g := buildCFG(parseBody(t, `
		for k, v := range m {
			use(k, v)
		}
	`))
	found := false
	for _, blk := range g.blocks {
		for _, n := range blk.nodes {
			if h, ok := n.(rangeHeader); ok {
				found = true
				if h.Key == nil || h.Value == nil {
					t.Error("rangeHeader lost the Key/Value exprs")
				}
			}
		}
	}
	if !found {
		t.Error("range loop produced no rangeHeader node; per-iteration rebinding is invisible to clients")
	}
}

func TestCFGControlStatementsNeverAppearAsNodes(t *testing.T) {
	// Clients ast.Inspect every node they are handed; a control
	// statement leaking into a block would double-count its body.
	g := buildCFG(parseBody(t, `
		for i := 0; i < n; i++ {
			if cond {
				continue
			}
			switch x {
			case 1:
				one()
			default:
				other()
			}
		}
		sel := 0
		_ = sel
	`))
	for _, blk := range g.blocks {
		for _, n := range blk.nodes {
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt, *ast.IfStmt, *ast.SwitchStmt,
				*ast.TypeSwitchStmt, *ast.SelectStmt, *ast.BlockStmt,
				*ast.BranchStmt, *ast.ReturnStmt, *ast.LabeledStmt:
				t.Errorf("control statement %T emitted as a block node", n)
			}
		}
	}
}

func TestCFGDeadCodeIsWalkedButUnreachable(t *testing.T) {
	// Statements after return land in a block no edge reaches: they
	// must exist (so structural sub-checks still see them) with a nil
	// converged in-state.
	g := buildCFG(parseBody(t, `
		return
		dead()
	`))
	in := forward(g, flow[string, bool]{node: func(ast.Node, facts[string, bool], bool) {}}, facts[string, bool]{})
	foundDead := false
	for _, blk := range g.blocks {
		for _, n := range blk.nodes {
			if es, ok := n.(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "dead" {
						foundDead = true
						if in[blk.index] != nil {
							t.Error("dead block has a reachable in-state")
						}
					}
				}
			}
		}
	}
	if !foundDead {
		t.Error("statement after return was dropped from the graph entirely")
	}
}

func TestCFGSelectCommClausesAreNodes(t *testing.T) {
	// chanrule depends on comm-clause lead statements (the send or
	// receive being selected on) appearing as nodes in the case body
	// blocks.
	g := buildCFG(parseBody(t, `
		select {
		case ch <- v:
			sent()
		case <-done:
			stopped()
		}
	`))
	var sawSend bool
	for _, blk := range g.blocks {
		for _, n := range blk.nodes {
			if _, ok := n.(*ast.SendStmt); ok {
				sawSend = true
			}
		}
	}
	if !sawSend {
		t.Error("select comm send never emitted as a CFG node; chanrule would miss guarded sends in selects")
	}
}

func TestCFGOfCachesPerPackage(t *testing.T) {
	body := parseBody(t, `x()`)
	pkg := &Package{}
	g1 := cfgOf(pkg, body)
	g2 := cfgOf(pkg, body)
	if g1 != g2 {
		t.Error("cfgOf rebuilt a cached body; per-package sharing across analyzers is broken")
	}
	if cfgOf(nil, body) == g1 {
		t.Error("nil-package cfgOf unexpectedly hit another package's cache")
	}
}

// TestCFGWideFunctionConverges guards the worklist against the
// quadratic blowup a long if/else chain could trigger.
func TestCFGWideFunctionConverges(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("step0()\n")
	for i := 0; i < 200; i++ {
		sb.WriteString("if cond {\n a()\n} else {\n b()\n}\n")
	}
	sb.WriteString("last()\n")
	g := buildCFG(parseBody(t, sb.String()))
	at := mustMentions(g)
	if !at["step0"] || !at["last"] {
		t.Error("chained-branch function lost straight-line facts at exit")
	}
	if at["a"] || at["b"] {
		t.Error("one-armed calls leaked into the must-state")
	}
}
