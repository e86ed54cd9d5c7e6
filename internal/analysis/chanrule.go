package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"sort"
)

// ChanRule enforces the channel ownership discipline the serving path
// depends on: channels are closed by their sender, never after a
// close, and never sent on inside a critical section.
//
// Three rules, all per package:
//
//  1. Close-by-receiver: a function that receives from a channel and
//     never sends on it must not close it. Only the sending side knows
//     when no more sends are coming; a receiver-side close turns the
//     next send into a panic.
//  2. Send-after-close: within one function, a CFG dataflow tracks the
//     channels possibly closed on some path to each point (union
//     join); a send or second close of a possibly-closed channel is a
//     run-time panic. Re-making the channel reopens it.
//  3. Send under a mutex: a channel send, as a statement or a select
//     case, while any sync.Mutex is held in the scope. A send that
//     blocks stalls every critical section of that mutex until a
//     receiver arrives — a latency cliff at best, a deadlock if the
//     receiver needs the same lock — and whether it can block depends
//     on a capacity and a receiver the sending scope cannot see. Send
//     after Unlock.
var ChanRule = &Analyzer{
	Name: "chanrule",
	Doc:  "close only by sender, no send/close after close on any path, no channel send while a mutex is held",
	Run:  runChanRule,
}

// chanUse aggregates a channel object's package-wide sites.
type chanUse struct {
	sendFns map[*ast.FuncDecl]bool
	recvFns map[*ast.FuncDecl]bool
	closes  []chanSite
}

type chanSite struct {
	fn   *ast.FuncDecl
	pos  token.Pos
	expr string
}

func runChanRule(pass *Pass) error {
	uses := map[types.Object]*chanUse{}
	closeFns := map[*ast.FuncDecl]bool{}  // funcs with ≥1 resolvable close
	sendFnSet := map[*ast.FuncDecl]bool{} // funcs with ≥1 send
	use := func(obj types.Object) *chanUse {
		u := uses[obj]
		if u == nil {
			u = &chanUse{sendFns: map[*ast.FuncDecl]bool{}, recvFns: map[*ast.FuncDecl]bool{}}
			uses[obj] = u
		}
		return u
	}

	// Package-wide sweep: who sends, receives, closes each channel
	// object.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SendStmt:
					sendFnSet[fn] = true
					if obj := chanObj(pass, n.Chan); obj != nil {
						use(obj).sendFns[fn] = true
					}
				case *ast.UnaryExpr:
					if n.Op == token.ARROW {
						if obj := chanObj(pass, n.X); obj != nil {
							use(obj).recvFns[fn] = true
						}
					}
				case *ast.RangeStmt:
					if t := pass.TypeOf(n.X); t != nil {
						if _, isChan := t.Underlying().(*types.Chan); isChan {
							if obj := chanObj(pass, n.X); obj != nil {
								use(obj).recvFns[fn] = true
							}
						}
					}
				case *ast.CallExpr:
					if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
						if obj := chanObj(pass, n.Args[0]); obj != nil {
							use(obj).closes = append(use(obj).closes, chanSite{
								fn: fn, pos: n.Pos(), expr: types.ExprString(ast.Unparen(n.Args[0])),
							})
							closeFns[fn] = true
						}
					}
				}
				return true
			})
		}
	}

	// Rule 1: close in a receiving, never-sending function.
	objs := make([]types.Object, 0, len(uses))
	for obj := range uses {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })
	for _, obj := range objs {
		u := uses[obj]
		for _, cl := range u.closes {
			if cl.fn != nil && u.recvFns[cl.fn] && !u.sendFns[cl.fn] {
				pass.Report(cl.pos, "close of %s in a function that receives from it; only the sender knows when sends are done — close on the sending side", cl.expr)
			}
		}
	}

	// Rules 2 and 3: per-scope CFG dataflows.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// The sweep already knows which functions touch channels
			// at all; running a fixpoint over the (vast majority of)
			// functions with no close or send would converge on the
			// empty state and report nothing — skip them.
			runClosed, runSends := closeFns[fd], sendFnSet[fd]
			if !runClosed && !runSends {
				continue
			}
			for _, scope := range funcScopes(fd.Body) {
				if runClosed {
					flowClosed(pass, scope)
				}
				if runSends {
					flowLockedSends(pass, scope)
				}
			}
		}
	}
	return nil
}

// chanObj resolves a channel expression to its variable/field object.
func chanObj(pass *Pass, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return pass.ObjectOf(e.Sel)
	case *ast.Ident:
		return pass.ObjectOf(e)
	}
	return nil
}

// chanEvent is one close/send/remake in a CFG node, position-ordered.
type chanEvent struct {
	pos  token.Pos
	obj  types.Object
	expr string
	kind int // ceClose, ceSend, ceRemake
}

const (
	ceClose = iota
	ceSend
	ceRemake
)

// nodeChanEvents extracts the channel events of one CFG node. Any
// assignment to a channel variable — including the per-iteration
// rebinding of a range loop's Key/Value — is a rebind (ceRemake): the
// variable no longer refers to the possibly-closed channel, so a close
// in a `for _, ch := range chans` loop does not conflict with itself
// across the back edge.
func nodeChanEvents(pass *Pass, n ast.Node) []chanEvent {
	var evs []chanEvent
	rebind := func(e ast.Expr, pos token.Pos) {
		if e == nil {
			return
		}
		t := pass.TypeOf(e)
		if t == nil {
			return
		}
		if _, isChan := t.Underlying().(*types.Chan); !isChan {
			return
		}
		if obj := chanObj(pass, e); obj != nil {
			evs = append(evs, chanEvent{pos: pos, obj: obj, kind: ceRemake})
		}
	}
	if h, isHeader := n.(rangeHeader); isHeader {
		rebind(h.Key, h.Pos())
		rebind(h.Value, h.Pos())
		return evs
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false // separate scope
		case *ast.SendStmt:
			if obj := chanObj(pass, m.Chan); obj != nil {
				evs = append(evs, chanEvent{pos: m.Arrow, obj: obj,
					expr: types.ExprString(ast.Unparen(m.Chan)), kind: ceSend})
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(m.Fun).(*ast.Ident); ok && id.Name == "close" && len(m.Args) == 1 {
				if obj := chanObj(pass, m.Args[0]); obj != nil {
					evs = append(evs, chanEvent{pos: m.Pos(), obj: obj,
						expr: types.ExprString(ast.Unparen(m.Args[0])), kind: ceClose})
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				rebind(lhs, m.Pos())
			}
		}
		return true
	})
	sort.Slice(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
	return evs
}

// flowClosed runs the may-be-closed dataflow over one scope (channel
// object → first close site, joined by union: closed on some path is
// enough to panic) and reports sends and closes reachable after a
// close on some path.
func flowClosed(pass *Pass, scope *ast.BlockStmt) {
	evCache := map[ast.Node][]chanEvent{}
	f := flow[types.Object, token.Pos]{
		may: true,
		node: func(n ast.Node, closed facts[types.Object, token.Pos], report bool) {
			evs, ok := evCache[n]
			if !ok {
				evs = nodeChanEvents(pass, n)
				evCache[n] = evs
			}
			for _, ev := range evs {
				if at, isClosed := closed[ev.obj]; report && isClosed {
					where := shortPos(pass.Fset.Position(at))
					switch ev.kind {
					case ceSend:
						pass.Report(ev.pos, "send on %s, which may already be closed (close at %s); send on a closed channel panics", ev.expr, where)
					case ceClose:
						pass.Report(ev.pos, "close of %s, which may already be closed (close at %s); double close panics", ev.expr, where)
					}
				}
				switch ev.kind {
				case ceClose:
					if _, ok := closed[ev.obj]; !ok {
						closed[ev.obj] = ev.pos
					}
				case ceRemake:
					delete(closed, ev.obj)
				}
			}
		},
	}
	g := cfgOf(pass.owner, scope)
	replay(g, f, forward(g, f, facts[types.Object, token.Pos]{}))
}

// flowLockedSends runs the held-lock dataflow (shared with lockguard)
// and reports sends, select cases included, executed while a mutex is
// held.
func flowLockedSends(pass *Pass, scope *ast.BlockStmt) {
	f := lockFlow(newLockReader(pass.TypesInfo), nil)
	apply := f.node
	f.node = func(n ast.Node, held heldLocks, report bool) {
		if send, ok := n.(*ast.SendStmt); ok && report && len(held) > 0 {
			pass.Report(send.Arrow, "send on %s while holding %s; a send that blocks stalls the critical section until a receiver is ready — send after Unlock",
				types.ExprString(ast.Unparen(send.Chan)), slices.Min(slices.Collect(maps.Keys(held))))
		}
		apply(n, held, report)
	}
	g := cfgOf(pass.owner, scope)
	replay(g, f, forward(g, f, heldLocks{}))
}
