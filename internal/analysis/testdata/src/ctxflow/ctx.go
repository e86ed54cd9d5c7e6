// Package ctxflow is the golden corpus for the ctxflow analyzer:
// dropped contexts where a Ctx sibling exists, and forbidden root
// contexts in library code.
package ctxflow

import "context"

func work() int { return 0 }

func workCtx(ctx context.Context) int { _ = ctx; return 0 }

func helper() int { return 0 } // no Ctx sibling: calls are fine

type server struct{}

func (s *server) run() {}

func (s *server) runCtx(ctx context.Context) { _ = ctx }

func badBackground() context.Context {
	return context.Background() // want "context.Background\\(\\) in library code"
}

func badTODO() context.Context {
	return context.TODO() // want "context.TODO\\(\\) in library code"
}

func badDrop(ctx context.Context) int {
	return work() // want "call to work drops the caller's context; use workCtx"
}

func badDropMethod(ctx context.Context, s *server) {
	s.run() // want "call to run drops the caller's context; use runCtx"
}

func okPropagated(ctx context.Context) int {
	return workCtx(ctx)
}

func okNoSibling(ctx context.Context) int {
	return helper()
}

func okNoCtxParam() int {
	return work() // caller has no ctx to drop
}

// --- rule 2 has no exemption ---

func solve(ctx context.Context, n int) int { _ = ctx; return n }

func solveCtx(ctx context.Context, n int) int { _ = ctx; return n }

// badShim is a ctx-free shim whose whole body delegates to its Ctx
// sibling with a bridging Background: rule 2 has no exemption for it.
func badShim(n int) int {
	return badShimCtx(context.Background(), n) // want "context.Background\\(\\) in library code"
}

func badShimCtx(ctx context.Context, n int) int { _ = ctx; return n }

// badNilDefault: a nil-guarded default is a root context like any
// other; callers pass context.Background() themselves.
func badNilDefault(ctx context.Context, n int) int {
	if ctx == nil {
		ctx = context.Background() // want "context.Background\\(\\) in library code"
	}
	return solve(ctx, n)
}

func badNilDefaultFlipped(ctx context.Context, n int) int {
	if nil == ctx {
		ctx = context.TODO() // want "context.TODO\\(\\) in library code"
	}
	return solve(ctx, n)
}

// badUnguardedDefault overwrites the caller's context without a nil
// check: that is a dropped context, not a default.
func badUnguardedDefault(ctx context.Context, n int) int {
	ctx = context.Background() // want "context.Background\\(\\) in library code"
	return solve(ctx, n)
}
