package analysis

import (
	"go/ast"
	"go/token"
	"maps"
	"slices"
)

// The intraprocedural CFG + dataflow substrate under every flow
// analyzer: lockguard, lockorder, chanrule, resetcheck and scratchown.
//
// A cfg decomposes one function scope (a FuncDecl body or a FuncLit
// body — nested literals are separate scopes, matching the lockguard
// scope rule) into basic blocks of "simple" nodes: plain statements
// (assignments, calls, sends, defers) and the condition expressions of
// the branches that end a block. Control statements themselves never
// appear inside a block; their structure is encoded as edges, so a
// client's transfer function can walk every node it is handed without
// re-entering bodies. Branch edges carry the condition expression and
// the boolean value under which the edge is taken, which is what lets
// the lock analyzers model `if !mu.TryLock() { return }` and
// scratchown model `if x != nil { x = x.Clone() }` precisely.
//
// On top of the graph, forward() runs a classic iterative worklist
// dataflow to a fixpoint over one lattice shape, facts: a keyed map
// joined by intersection (must) or union (may). Clients supply the
// transfer functions (node, edge). Diagnostics are emitted only after
// convergence, by replay(), which walks each reachable block once
// against its converged in-state, so the fixpoint iteration itself
// never reports. Interprocedural summaries (scratchown's escapes,
// lockorder's may-acquire flags) grow under fixpoint() until stable.

// A cfgBlock is one basic block: nodes in execution order, then edges.
type cfgBlock struct {
	index int
	nodes []ast.Node
	succs []cfgEdge
	preds []*cfgBlock
}

// A cfgEdge is one control transfer. When cond is non-nil, the edge is
// taken exactly when cond evaluates to `when` — the hook for
// branch-sensitive refinement (TryLock in the lock analyzers, nil
// checks in scratchown).
type cfgEdge struct {
	to   *cfgBlock
	cond ast.Expr
	when bool
}

// rangeHeader marks the per-iteration part of a RangeStmt (Key/Value
// binding and the ranged operand) inside a loop-body block. Clients
// must interpret Key, Value, and X only — Body is already decomposed
// into the graph.
type rangeHeader struct{ *ast.RangeStmt }

// A cfg is the control-flow graph of one function scope.
type cfg struct {
	entry  *cfgBlock
	exit   *cfgBlock
	blocks []*cfgBlock
}

// buildCFG decomposes body into a cfg. goto is handled conservatively
// (treated as a jump to exit: states after a label are re-derived from
// the structured edges only); the repository has no goto, and the
// conservative reading can only widen, never narrow, what the
// analyzers think is held.
func buildCFG(body *ast.BlockStmt) *cfg {
	b := &cfgBuilder{g: &cfg{}}
	b.g.entry = b.newBlock()
	b.g.exit = b.newBlock()
	b.cur = b.g.entry
	b.stmt(body)
	if b.cur != nil {
		b.edge(b.cur, b.g.exit, nil, false)
	}
	for _, blk := range b.g.blocks {
		for _, e := range blk.succs {
			e.to.preds = append(e.to.preds, blk)
		}
	}
	return b.g
}

type cfgFrame struct {
	label      string
	breakTo    *cfgBlock
	continueTo *cfgBlock // nil for switch/select frames
}

type cfgBuilder struct {
	g      *cfg
	cur    *cfgBlock // nil while unreachable (after return/break/…)
	frames []cfgFrame
	label  string // pending label for the next loop/switch
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{index: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *cfgBlock, cond ast.Expr, when bool) {
	from.succs = append(from.succs, cfgEdge{to: to, cond: cond, when: when})
}

// emit appends a simple node to the current block, materializing a
// fresh block if the position is currently unreachable (dead code is
// still walked so its diagnostics and state shape stay well-defined,
// but no edge ever reaches it).
func (b *cfgBuilder) emit(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.nodes = append(b.cur.nodes, n)
}

func (b *cfgBuilder) pushFrame(f cfgFrame) { b.frames = append(b.frames, f) }
func (b *cfgBuilder) popFrame()            { b.frames = b.frames[:len(b.frames)-1] }

// frameFor resolves the break/continue target: the innermost suitable
// frame, or the one carrying the label.
func (b *cfgBuilder) frameFor(label string, needContinue bool) *cfgFrame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if label != "" && f.label != label {
			continue
		}
		if needContinue && f.continueTo == nil {
			continue
		}
		return f
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, inner := range s.List {
			b.stmt(inner)
		}
	case *ast.LabeledStmt:
		b.label = s.Label.Name
		b.stmt(s.Stmt)
		b.label = ""
	case *ast.IfStmt:
		b.stmt(s.Init)
		b.emit(s.Cond)
		head := b.cur
		join := b.newBlock()
		thenBlk := b.newBlock()
		b.edge(head, thenBlk, s.Cond, true)
		b.cur = thenBlk
		b.stmt(s.Body)
		if b.cur != nil {
			b.edge(b.cur, join, nil, false)
		}
		if s.Else != nil {
			elseBlk := b.newBlock()
			b.edge(head, elseBlk, s.Cond, false)
			b.cur = elseBlk
			b.stmt(s.Else)
			if b.cur != nil {
				b.edge(b.cur, join, nil, false)
			}
		} else {
			b.edge(head, join, s.Cond, false)
		}
		b.cur = join
	case *ast.ForStmt:
		b.stmt(s.Init)
		head := b.newBlock()
		if b.cur != nil {
			b.edge(b.cur, head, nil, false)
		}
		b.cur = head
		b.emit(s.Cond)
		condEnd := b.cur
		body := b.newBlock()
		join := b.newBlock()
		post := b.newBlock()
		if s.Cond != nil {
			b.edge(condEnd, body, s.Cond, true)
			b.edge(condEnd, join, s.Cond, false)
		} else {
			b.edge(condEnd, body, nil, false)
		}
		b.pushFrame(cfgFrame{label: b.label, breakTo: join, continueTo: post})
		b.label = ""
		b.cur = body
		b.stmt(s.Body)
		b.popFrame()
		if b.cur != nil {
			b.edge(b.cur, post, nil, false)
		}
		b.cur = post
		b.stmt(s.Post)
		if b.cur != nil {
			b.edge(b.cur, head, nil, false)
		}
		b.cur = join
	case *ast.RangeStmt:
		b.emit(s.X)
		head := b.cur
		if head == nil {
			head = b.newBlock()
			b.cur = head
		}
		body := b.newBlock()
		join := b.newBlock()
		b.edge(head, body, nil, false)
		b.edge(head, join, nil, false) // empty-range skip
		b.pushFrame(cfgFrame{label: b.label, breakTo: join, continueTo: head})
		b.label = ""
		b.cur = body
		b.emit(rangeHeader{s})
		b.stmt(s.Body)
		b.popFrame()
		if b.cur != nil {
			b.edge(b.cur, head, nil, false)
		}
		b.cur = join
	case *ast.SwitchStmt:
		b.stmt(s.Init)
		b.emit(s.Tag)
		b.caseBodies(s.Body.List, func(cc ast.Stmt) ([]ast.Node, []ast.Stmt, bool) {
			c := cc.(*ast.CaseClause)
			var exprs []ast.Node
			for _, e := range c.List {
				exprs = append(exprs, e)
			}
			return exprs, c.Body, c.List == nil
		}, true)
	case *ast.TypeSwitchStmt:
		b.stmt(s.Init)
		b.stmt(s.Assign)
		b.caseBodies(s.Body.List, func(cc ast.Stmt) ([]ast.Node, []ast.Stmt, bool) {
			c := cc.(*ast.CaseClause)
			return nil, c.Body, c.List == nil
		}, true)
	case *ast.SelectStmt:
		b.caseBodies(s.Body.List, func(cc ast.Stmt) ([]ast.Node, []ast.Stmt, bool) {
			c := cc.(*ast.CommClause)
			var lead []ast.Node
			if c.Comm != nil {
				lead = append(lead, c.Comm)
			}
			return lead, c.Body, c.Comm == nil
		}, false)
	case *ast.ReturnStmt:
		b.emit(s)
		if b.cur != nil {
			b.edge(b.cur, b.g.exit, nil, false)
		}
		b.cur = nil
	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if f := b.frameFor(label, false); f != nil && b.cur != nil {
				b.edge(b.cur, f.breakTo, nil, false)
			}
			b.cur = nil
		case token.CONTINUE:
			if f := b.frameFor(label, true); f != nil && b.cur != nil {
				b.edge(b.cur, f.continueTo, nil, false)
			}
			b.cur = nil
		case token.GOTO:
			if b.cur != nil {
				b.edge(b.cur, b.g.exit, nil, false)
			}
			b.cur = nil
		case token.FALLTHROUGH:
			// handled structurally by caseBodies; nothing to emit
		}
	default:
		// Simple statement: Assign, IncDec, Expr, Send, Decl, Defer,
		// Go, Empty — one node, interpreted whole by the client.
		b.emit(s)
	}
}

// caseBodies wires a switch/type-switch/select: every case body hangs
// off the head. A select without default still routes all control
// through the bodies since exactly one case always runs (so `select {}`
// leaves join unreachable). A missing default on a (type-)switch adds a
// direct head→join edge.
func (b *cfgBuilder) caseBodies(clauses []ast.Stmt, parts func(ast.Stmt) ([]ast.Node, []ast.Stmt, bool), isSwitch bool) {
	head := b.cur
	if head == nil {
		head = b.newBlock()
		b.cur = head
	}
	join := b.newBlock()
	b.pushFrame(cfgFrame{label: b.label, breakTo: join})
	b.label = ""
	hasDefault := false
	bodies := make([]*cfgBlock, len(clauses))
	var bodyStmts [][]ast.Stmt
	for i, cc := range clauses {
		lead, stmts, isDefault := parts(cc)
		hasDefault = hasDefault || isDefault
		blk := b.newBlock()
		bodies[i] = blk
		bodyStmts = append(bodyStmts, stmts)
		// Case guard expressions / comm statements evaluate on the way
		// into the case.
		b.cur = blk
		for _, n := range lead {
			if st, ok := n.(ast.Stmt); ok {
				b.stmt(st)
			} else {
				b.emit(n)
			}
		}
		b.edge(head, blk, nil, false)
	}
	for i := range clauses {
		b.cur = bodies[i]
		// Re-find the block where lead emission left off: lead parts
		// are simple, so bodies[i] is still current-correct.
		fallsThrough := false
		for _, st := range bodyStmts[i] {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
				continue
			}
			b.stmt(st)
		}
		if b.cur != nil {
			if fallsThrough && i+1 < len(bodies) {
				b.edge(b.cur, bodies[i+1], nil, false)
			} else {
				b.edge(b.cur, join, nil, false)
			}
		}
	}
	b.popFrame()
	if isSwitch && !hasDefault {
		b.edge(head, join, nil, false)
	}
	b.cur = join
}

// facts is the lattice value of every flow client: a finite map from
// a key (a held mutex, a closed channel, a touched field, a variable)
// to a comparable fact about it. nil is the unreachable state.
type facts[K, V comparable] map[K]V

// A flow is one forward dataflow client over facts. node and edge
// update the state in place; the engine copies before every block.
type flow[K, V comparable] struct {
	// may selects the join at merges: union (a fact on some path is
	// enough) when set, intersection (a fact on every path) otherwise.
	may bool
	// meet combines the facts of a key present on both sides of a
	// merge; nil keeps the fact already there.
	meet func(a, b V) V
	// node applies one block node. report is false while iterating to
	// the fixpoint and true during the replay.
	node func(n ast.Node, st facts[K, V], report bool)
	// edge refines the state on a conditional edge (nil: no
	// refinement).
	edge func(e cfgEdge, st facts[K, V])
}

// merge joins next into *dst, reporting whether *dst changed. It may
// take next over as the new state.
func (f *flow[K, V]) merge(dst *facts[K, V], next facts[K, V]) bool {
	cur := *dst
	if cur == nil {
		*dst = next
		return true
	}
	changed := false
	for k, a := range cur {
		b, ok := next[k]
		switch {
		case !ok && !f.may:
			delete(cur, k)
			changed = true
		case ok && f.meet != nil:
			if m := f.meet(a, b); m != a {
				cur[k] = m
				changed = true
			}
		}
	}
	if f.may {
		for k, b := range next {
			if _, ok := cur[k]; !ok {
				cur[k] = b
				changed = true
			}
		}
	}
	return changed
}

// forward computes the converged in-state of every block (indexed by
// cfgBlock.index; nil = unreachable), starting from entry. Iteration is
// bounded as a backstop against a non-monotone client; the bound is
// far above what the lattices used here need to converge.
func forward[K, V comparable](g *cfg, f flow[K, V], entry facts[K, V]) []facts[K, V] {
	in := make([]facts[K, V], len(g.blocks))
	in[g.entry.index] = maps.Clone(entry)
	order := g.postorder()
	slices.Reverse(order)
	for iter := 0; iter < 4*(len(g.blocks)+1); iter++ {
		changed := false
		for _, blk := range order {
			if in[blk.index] == nil {
				continue
			}
			out := maps.Clone(in[blk.index])
			for _, n := range blk.nodes {
				f.node(n, out, false)
			}
			for i, e := range blk.succs {
				next := out
				refine := e.cond != nil && f.edge != nil
				if refine || i < len(blk.succs)-1 {
					next = maps.Clone(out)
				}
				if refine {
					f.edge(e, next)
				}
				if f.merge(&in[e.to.index], next) {
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return in
}

// replay walks every reachable block once from its converged in-state
// with report set, so a client emits each finding exactly once and
// never from an intermediate fixpoint state.
func replay[K, V comparable](g *cfg, f flow[K, V], in []facts[K, V]) {
	for _, blk := range g.blocks {
		if in[blk.index] == nil {
			continue
		}
		st := maps.Clone(in[blk.index])
		for _, n := range blk.nodes {
			f.node(n, st, true)
		}
	}
}

// fixpoint calls step until it reports that no summary grew. Summaries
// only grow and are bounded by the module's finite keys, so this
// terminates; the bound is a backstop.
func fixpoint(step func() bool) {
	for iter := 0; iter < 32 && step(); iter++ {
	}
}

// postorder returns the blocks reachable from entry in postorder.
func (g *cfg) postorder() []*cfgBlock {
	seen := make([]bool, len(g.blocks))
	var order []*cfgBlock
	var visit func(b *cfgBlock)
	visit = func(b *cfgBlock) {
		seen[b.index] = true
		for _, e := range b.succs {
			if !seen[e.to.index] {
				visit(e.to)
			}
		}
		order = append(order, b)
	}
	visit(g.entry)
	return order
}

// cfgOf returns the (cached) CFG of a function scope. The cache lives
// on the Package so the per-package analyzers and the module passes
// build each function's graph once per schedlint run.
func cfgOf(pkg *Package, body *ast.BlockStmt) *cfg {
	if pkg == nil {
		return buildCFG(body)
	}
	if pkg.cfgs == nil {
		pkg.cfgs = map[*ast.BlockStmt]*cfg{}
	}
	if g, ok := pkg.cfgs[body]; ok {
		return g
	}
	g := buildCFG(body)
	pkg.cfgs[body] = g
	return g
}

// funcScopes returns body plus the body of every function literal
// nested in it — the per-scope unit the concurrency analyzers work on
// (a closure must establish its own lock state).
func funcScopes(body *ast.BlockStmt) []*ast.BlockStmt {
	scopes := []*ast.BlockStmt{body}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			scopes = append(scopes, lit.Body)
		}
		return true
	})
	return scopes
}

// condValue peels negations off a branch condition: given cond and the
// value the edge was taken under, it returns the innermost expression
// and the value THAT expression had. `if !ok`-style chains reduce to
// (ok, false) on the then-edge.
func condValue(cond ast.Expr, when bool) (ast.Expr, bool) {
	for {
		switch e := ast.Unparen(cond).(type) {
		case *ast.UnaryExpr:
			if e.Op == token.NOT {
				cond, when = e.X, !when
				continue
			}
		}
		return ast.Unparen(cond), when
	}
}
