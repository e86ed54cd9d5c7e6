package analysis

// Mutation checks: the analyzers exist to catch regressions in THIS
// repository, so each rule is proven against the real code it guards,
// not only against the golden corpora. Each test copies a production
// package into a temp dir, verifies the unmutated copy is clean,
// applies the exact single-site regression the analyzer was built for,
// and asserts the diagnostic fires and names the offending site. If an
// analyzer rots into a no-op, these fail before the bug class it
// guards can land.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// copyPkgNonTest copies the non-test Go sources of srcDir into a fresh
// temp dir, returning the copy's path.
func copyPkgNonTest(t *testing.T, srcDir string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(srcDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), src, 0o644); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n == 0 {
		t.Fatalf("no Go sources found in %s", srcDir)
	}
	return dst
}

// mutateFile applies a single textual mutation, insisting the anchor is
// unique so the test fails loudly if the production code drifts.
func mutateFile(t *testing.T, dir, file, anchor, replacement string) {
	t.Helper()
	path := filepath.Join(dir, file)
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(src), anchor); n != 1 {
		t.Fatalf("mutation anchor appears %d times in %s (want exactly 1); update the anchor to match the current source", n, file)
	}
	out := strings.Replace(string(src), anchor, replacement, 1)
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}

// lineOf returns the 1-based line of the unique occurrence of needle in
// dir/file.
func lineOf(t *testing.T, dir, file, needle string) int {
	t.Helper()
	src, err := os.ReadFile(filepath.Join(dir, file))
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(string(src), needle)
	if i < 0 || strings.Count(string(src), needle) != 1 {
		t.Fatalf("%q does not appear exactly once in %s", needle, file)
	}
	return 1 + strings.Count(string(src[:i]), "\n")
}

// wantOneAt asserts that diags is exactly one diagnostic, at file:line,
// whose message contains every one of msgs.
func wantOneAt(t *testing.T, diags []Diagnostic, file string, line int, msgs ...string) {
	t.Helper()
	ok := len(diags) == 1 && filepath.Base(diags[0].Pos.Filename) == file && diags[0].Pos.Line == line
	for _, m := range msgs {
		ok = ok && strings.Contains(diags[0].Message, m)
	}
	if !ok {
		t.Errorf("want one diagnostic at %s:%d containing %q, got: %v", file, line, msgs, diags)
	}
}

// runOnDir loads the package copy and runs one analyzer over it.
func runOnDir(t *testing.T, dir, importPath string, a *Analyzer) []Diagnostic {
	t.Helper()
	pkg, err := LoadDir(".", dir, importPath)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	diags, err := Run([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	return diags
}

// copyClean copies a production package and fails unless the copy is
// clean under a.
func copyClean(t *testing.T, pkg string, a *Analyzer) string {
	t.Helper()
	if testing.Short() {
		t.Skip("typechecks internal/" + pkg)
	}
	dir := copyPkgNonTest(t, filepath.Join("..", pkg))
	if diags := runOnDir(t, dir, "mutation/internal/"+pkg, a); len(diags) != 0 {
		t.Fatalf("unmutated %s copy not %s-clean: %v", pkg, a.Name, diags)
	}
	return dir
}

// TestMutationWireClientNestedLock nests WireClient's locks in the two
// shapes lockorder bans, each on its own copy. First the reader's
// failure path takes wmu before mu, to fence writers out while it
// fails the waiters: one order alone, which an ordering graph accepts
// until some writer nests them the other way. Then Hello holds wmu
// around its call, which takes wmu again in send: a self-deadlock that
// only the callee's may-acquire summary shows.
func TestMutationWireClientNestedLock(t *testing.T) {
	dir := copyClean(t, "netserve", LockOrder)
	mutateFile(t, dir, "wireclient.go",
		"\tc.mu.Lock()\n\tc.broken = err\n",
		"\tc.wmu.Lock()\n\tdefer c.wmu.Unlock()\n\tc.mu.Lock()\n\tc.broken = err\n")
	wantOneAt(t, runOnDir(t, dir, "mutation/internal/netserve", LockOrder), "wireclient.go",
		lineOf(t, dir, "wireclient.go", "\tc.mu.Lock()\n\tc.broken = err"), "Lock of c.mu while holding c.wmu")

	dir = copyClean(t, "netserve", LockOrder)
	mutateFile(t, dir, "wireclient.go",
		"\t_, err := c.call(ctx, Request{Op: \"hello\"",
		"\tc.wmu.Lock()\n\tdefer c.wmu.Unlock()\n\t_, err := c.call(ctx, Request{Op: \"hello\"")
	wantOneAt(t, runOnDir(t, dir, "mutation/internal/netserve", LockOrder), "wireclient.go",
		lineOf(t, dir, "wireclient.go", "c.call(ctx, Request{Op: \"hello\""), "call to mutation/internal/netserve.(WireClient).call may acquire a mutex", "while holding c.wmu")
}

// TestMutationObsRingLockGuard reads the trace ring's event count
// before Snapshot takes the ring's mutex, a data race with every
// concurrent writer. lockguard must flag the read of the guarded n in
// trace.go.
func TestMutationObsRingLockGuard(t *testing.T) {
	dir := copyClean(t, "obs", LockGuard)

	mutateFile(t, dir, "trace.go",
		"\tr.mu.Lock()\n\tdefer r.mu.Unlock()\n\tk := min(r.n, RingCap)",
		"\tk := min(r.n, RingCap)\n\tr.mu.Lock()\n\tdefer r.mu.Unlock()")

	diags := runOnDir(t, dir, "mutation/internal/obs", LockGuard)
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "access to r.n without holding r.mu") {
			found = true
			if filepath.Base(d.Pos.Filename) != "trace.go" {
				t.Errorf("diagnostic anchored outside trace.go: %v", d)
			}
		}
	}
	if !found {
		t.Errorf("unlocked read of TraceRing.n produced no lockguard diagnostic; got: %v", diags)
	}
}

// TestMutationServiceCloneScratchOwn drops the one Clone that keeps
// the worker's scratch-owned schedule out of the result cache and the
// ticket. The schedule then reaches both only through same-package
// calls, so scratchown must follow its escape summaries (put stores
// into the cache's map, finish into the ticket) and flag both
// arguments.
func TestMutationServiceCloneScratchOwn(t *testing.T) {
	dir := copyClean(t, "service", ScratchOwn)

	mutateFile(t, dir, "service.go", "sched = sched.Clone()", "_ = sched")

	diags := runOnDir(t, dir, "mutation/internal/service", ScratchOwn)
	var put, finish bool
	for _, d := range diags {
		put = put || strings.Contains(d.Message, "escapes through put")
		finish = finish || strings.Contains(d.Message, "escapes through finish")
		if filepath.Base(d.Pos.Filename) != "service.go" {
			t.Errorf("diagnostic outside service.go: %v", d)
		}
	}
	if len(diags) != 2 || !put || !finish {
		t.Errorf("unCloned schedule: want exactly the put and finish escapes, got: %v", diags)
	}
}

// TestMutationUntypedAtomic turns the service's failure counter back
// into a plain int64 bumped with atomic.AddInt64 and read plainly by
// Stats: the mixed atomic/plain access the typed atomics rule out.
// atomicmix must flag the untyped call at its line.
func TestMutationUntypedAtomic(t *testing.T) {
	dir := copyClean(t, "service", AtomicMix)

	mutateFile(t, dir, "service.go",
		"submitted, completed, failures, resultHits atomic.Int64",
		"submitted, completed, resultHits atomic.Int64\n\tfailures int64")
	mutateFile(t, dir, "service.go", "s.failures.Add(1)", "atomic.AddInt64(&s.failures, 1)")
	mutateFile(t, dir, "service.go", "s.failures.Load()", "s.failures")

	wantOneAt(t, runOnDir(t, dir, "mutation/internal/service", AtomicMix), "service.go",
		lineOf(t, dir, "service.go", "atomic.AddInt64("), "sync/atomic.AddInt64", "atomic.Int64")
}

// TestMutationHotAllocAppend makes the estimator's per-probe
// evaluation collect every γ into a fresh local slice. Nothing
// escapes, so the compiler's escape analysis (cmd/escapegate) stays
// silent, yet the slice grows from nothing on every dual probe.
// hotalloc must flag the append at its line in lt.go.
func TestMutationHotAllocAppend(t *testing.T) {
	dir := copyClean(t, "lt", HotAlloc)

	mutateFile(t, dir, "lt.go",
		"\tres := evalResult{feasible: true}\n\tfor i, j := range in.Jobs {\n\t\tg, tg := br[i].gamma(j, in.M, v, false)\n",
		"\tres := evalResult{feasible: true}\n\tvar gs []int\n\tfor i, j := range in.Jobs {\n\t\tg, tg := br[i].gamma(j, in.M, v, false)\n\t\tgs = append(gs, g)\n")

	wantOneAt(t, runOnDir(t, dir, "mutation/internal/lt", HotAlloc), "lt.go",
		lineOf(t, dir, "lt.go", "gs = append(gs, g)"), "append grows a non-scratch slice")
}

// TestMutationLimiterRWMutex turns the rate limiter's mutex into a
// sync.RWMutex, a lock mode the lock analyzers do not model. lockguard
// must ban the type at the field.
func TestMutationLimiterRWMutex(t *testing.T) {
	dir := copyClean(t, "netserve", LockGuard)
	mutateFile(t, dir, "limits.go", "\tmu      sync.Mutex\n\tbuckets", "\tmu      sync.RWMutex\n\tbuckets")

	line := lineOf(t, dir, "limits.go", "sync.RWMutex")
	var ban bool
	for _, d := range runOnDir(t, dir, "mutation/internal/netserve", LockGuard) {
		ban = ban || d.Pos.Line == line && strings.Contains(d.Message, "sync.RWMutex: the lock analyzers model sync.Mutex only")
		if filepath.Base(d.Pos.Filename) != "limits.go" {
			t.Errorf("diagnostic outside limits.go: %v", d)
		}
	}
	if !ban {
		t.Errorf("Limiter.mu as a sync.RWMutex: want the ban at limits.go:%d", line)
	}
}

// TestMutationWireClientSendUnderLock moves the response hand-off in
// WireClient.readLoop inside the waiter-map critical section. The
// channel comes out of a map, so no make site says whether it is
// buffered; chanrule must flag the send because a mutex is held.
func TestMutationWireClientSendUnderLock(t *testing.T) {
	dir := copyClean(t, "netserve", ChanRule)
	mutateFile(t, dir, "wireclient.go",
		"\t\tc.mu.Unlock()\n\t\tif ch != nil {\n\t\t\tch <- r // buffered 1; never blocks\n\t\t}\n",
		"\t\tif ch != nil {\n\t\t\tch <- r // buffered 1; never blocks\n\t\t}\n\t\tc.mu.Unlock()\n")

	wantOneAt(t, runOnDir(t, dir, "mutation/internal/netserve", ChanRule), "wireclient.go",
		lineOf(t, dir, "wireclient.go", "ch <- r"), "send on ch while holding c.mu")
}

// TestMutationServiceNilContextDefault gives Scheduler.DoCtx a nil
// default for its context. ctxflow has no exemption for it: the
// Background call is flagged at its line.
func TestMutationServiceNilContextDefault(t *testing.T) {
	dir := copyClean(t, "service", CtxFlow)
	mutateFile(t, dir, "service.go",
		"\treturn wait(ctx, s.SubmitCtx(ctx, in, opt, false))\n",
		"\tif ctx == nil {\n\t\tctx = context.Background()\n\t}\n\treturn wait(ctx, s.SubmitCtx(ctx, in, opt, false))\n")

	wantOneAt(t, runOnDir(t, dir, "mutation/internal/service", CtxFlow), "service.go",
		lineOf(t, dir, "service.go", "context.Background()"), "context.Background() in library code")
}

// TestMutationPairListReset drops the scratch buffer from PairList's
// Reset, so a recycled list carries the previous call's candidates.
// resetcheck must flag the Reset.
func TestMutationPairListReset(t *testing.T) {
	dir := copyClean(t, "knapsack", ResetCheck)
	mutateFile(t, dir, "pairs.go", "\tl.scratch = l.scratch[:0]\n", "")

	wantOneAt(t, runOnDir(t, dir, "mutation/internal/knapsack", ResetCheck), "pairs.go",
		lineOf(t, dir, "pairs.go", "func (l *PairList) Reset()"), `does not touch field "scratch"`)
}

// TestMutationMinMTruncates replaces the epsilon-guarded ceiling in
// fptas.MinM, whose quotient lands a few ulps above an integer for
// eps like 0.1, with a bare int conversion. fpconv must flag the
// conversion.
func TestMutationMinMTruncates(t *testing.T) {
	dir := copyClean(t, "fptas", FPConv)
	mutateFile(t, dir, "fptas.go",
		"return compress.CeilInt(16 * float64(n) / eps)",
		"return int(16 * float64(n) / eps)")

	wantOneAt(t, runOnDir(t, dir, "mutation/internal/fptas", FPConv), "fptas.go",
		lineOf(t, dir, "fptas.go", "int(16 * float64(n) / eps)"), "int conversion truncates a float arithmetic expression")
}

// TestMutationServiceWorkerLeak deletes the WaitGroup Done of the
// service's worker spawn, its only join signal: Close could then
// return while workers still run. goroleak must flag the go statement.
func TestMutationServiceWorkerLeak(t *testing.T) {
	dir := copyClean(t, "service", GoroLeak)
	mutateFile(t, dir, "service.go", "\t\t\tdefer s.workers.Done()\n\t\t\ts.work(q)\n", "\t\t\ts.work(q)\n")

	wantOneAt(t, runOnDir(t, dir, "mutation/internal/service", GoroLeak), "service.go",
		lineOf(t, dir, "service.go", "go func() {\n\t\t\ts.work(q)"), "goroutine has no statically visible join path")
}

// TestMutationScherrUndocumentedCode adds a sentinel and its wire code
// to scherr, wired through Code, but no row in docs/PROTOCOL.md.
// wirecode must flag the undocumented code at Code.
func TestMutationScherrUndocumentedCode(t *testing.T) {
	ProtocolDocOverride = filepath.Join("..", "..", "docs", "PROTOCOL.md") // the copy has no module root
	defer func() { ProtocolDocOverride = "" }()
	dir := copyClean(t, "scherr", WireCode)
	mutateFile(t, dir, "scherr.go", "\tCodeInternal    = \"internal\"\n",
		"\tCodeInternal    = \"internal\"\n\tCodeOverloaded  = \"overloaded\"\n)\n\nvar ErrOverloaded = errors.New(\"overloaded\")\n\nconst (\n")
	mutateFile(t, dir, "scherr.go", "\tcase errors.Is(err, ErrBadEps):\n\t\treturn CodeBadEps\n",
		"\tcase errors.Is(err, ErrBadEps):\n\t\treturn CodeBadEps\n\tcase errors.Is(err, ErrOverloaded):\n\t\treturn CodeOverloaded\n")

	wantOneAt(t, runOnDir(t, dir, "mutation/internal/scherr", WireCode), "scherr.go",
		lineOf(t, dir, "scherr.go", "func Code(err error) string"), `scherr code "overloaded" is not in the scherr table`)
}

// TestMutationServiceOwnMetric registers a metric from the service
// package instead of the obs catalog, out of reach of the doc diff
// and the exactly-once guarantee. obsreg must flag the registration.
func TestMutationServiceOwnMetric(t *testing.T) {
	dir := copyClean(t, "service", ObsReg)
	mutateFile(t, dir, "service.go", "func PublishStats(st Stats) {",
		"var serviceDropped = obs.Default.Counter(\"service_dropped_total\", \"submissions dropped\")\n\nfunc PublishStats(st Stats) {")

	wantOneAt(t, runOnDir(t, dir, "mutation/internal/service", ObsReg), "service.go",
		lineOf(t, dir, "service.go", "service_dropped_total"), `metric "service_dropped_total" registered outside the obs package`)
}

// TestMutationFPTASPackageDoc puts a blank line between fptas's doc
// comment and its package clause. The comment stays in the file, but
// it no longer documents the package, so go doc shows nothing; a grep
// for the "// Package fptas" line would still pass. pkgdoc must flag
// the package clause.
func TestMutationFPTASPackageDoc(t *testing.T) {
	dir := copyClean(t, "fptas", PkgDoc)
	mutateFile(t, dir, "fptas.go", "dual search).\npackage fptas\n", "dual search).\n\npackage fptas\n")

	wantOneAt(t, runOnDir(t, dir, "mutation/internal/fptas", PkgDoc), "fptas.go",
		lineOf(t, dir, "fptas.go", "\npackage fptas")+1, `no doc comment starting "Package fptas ..."`)
}
