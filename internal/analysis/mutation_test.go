package analysis

// Mutation checks: the analyzers exist to catch concurrency regressions
// in THIS repository, so each flagship rule is proven against the real
// code it guards, not only against the golden corpora. Each test copies
// a production package into a temp dir, verifies the unmutated copy is
// clean, applies the exact single-site regression the analyzer was
// built for, and asserts the diagnostic fires and names the offending
// site. If an analyzer rots into a no-op, these fail before the bug
// class it guards can land.

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

// TestMutationWireClientLockOrder nests WireClient's two mutexes both
// ways. First the reader's failure path takes wmu before mu, to fence
// writers out while it fails the waiters: one consistent order, which
// lockorder must accept. Then send holds mu across the frame write,
// so the reader cannot fail a waiter mid-write: mu before wmu. The
// two orders together are a textbook deadlock between the reader and
// a writer, and lockorder must report the cycle naming both mutexes.
func TestMutationWireClientLockOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks internal/netserve")
	}
	dir := copyPkgNonTest(t, filepath.Join("..", "netserve"))
	if diags := runOnDir(t, dir, "mutation/netserve", LockOrder); len(diags) != 0 {
		t.Fatalf("unmutated netserve copy not lockorder-clean: %v", diags)
	}

	mutateFile(t, dir, "wireclient.go",
		"\tc.mu.Lock()\n\tc.broken = err\n",
		"\tc.wmu.Lock()\n\tdefer c.wmu.Unlock()\n\tc.mu.Lock()\n\tc.broken = err\n")
	if diags := runOnDir(t, dir, "mutation/netserve", LockOrder); len(diags) != 0 {
		t.Fatalf("one consistent wmu → mu nesting reported: %v", diags)
	}

	mutateFile(t, dir, "wireclient.go",
		"\tc.wmu.Lock()\n\t_, err := c.conn.Write(*frame)\n\tc.wmu.Unlock()\n",
		"\tc.mu.Lock()\n\tc.wmu.Lock()\n\t_, err := c.conn.Write(*frame)\n\tc.wmu.Unlock()\n\tc.mu.Unlock()\n")
	diags := runOnDir(t, dir, "mutation/netserve", LockOrder)
	var cycle bool
	for _, d := range diags {
		if strings.Contains(d.Message, "lock-order cycle") &&
			strings.Contains(d.Message, "netserve.WireClient.wmu") &&
			strings.Contains(d.Message, "netserve.WireClient.mu") {
			cycle = true
		}
		if filepath.Base(d.Pos.Filename) != "wireclient.go" {
			t.Errorf("diagnostic outside wireclient.go: %v", d)
		}
	}
	if !cycle {
		t.Errorf("wmu → mu in readLoop plus mu → wmu in send produced no lock-order cycle diagnostic; got: %v", diags)
	}
}

// TestMutationObsRingLockGuard reads the trace ring's event count
// before Snapshot takes the ring's mutex, a data race with every
// concurrent writer. lockguard must flag the read of the guarded n in
// trace.go.
func TestMutationObsRingLockGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks internal/obs")
	}
	dir := copyPkgNonTest(t, filepath.Join("..", "obs"))
	if diags := runOnDir(t, dir, "mutation/obs", LockGuard); len(diags) != 0 {
		t.Fatalf("unmutated obs copy not lockguard-clean: %v", diags)
	}

	mutateFile(t, dir, "trace.go",
		"\tr.mu.Lock()\n\tdefer r.mu.Unlock()\n\tk := min(r.n, RingCap)",
		"\tk := min(r.n, RingCap)\n\tr.mu.Lock()\n\tdefer r.mu.Unlock()")

	diags := runOnDir(t, dir, "mutation/obs", LockGuard)
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "read of r.n without holding r.mu") {
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
// into the cache's shard map, finish into the ticket) and flag both
// arguments.
func TestMutationServiceCloneScratchOwn(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks internal/service")
	}
	dir := copyPkgNonTest(t, filepath.Join("..", "service"))
	if diags := runOnDir(t, dir, "mutation/service", ScratchOwn); len(diags) != 0 {
		t.Fatalf("unmutated service copy not scratchown-clean: %v", diags)
	}

	mutateFile(t, dir, "service.go", "sched = sched.Clone()", "_ = sched")

	diags := runOnDir(t, dir, "mutation/service", ScratchOwn)
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
	if testing.Short() {
		t.Skip("typechecks internal/service")
	}
	dir := copyPkgNonTest(t, filepath.Join("..", "service"))
	if diags := runOnDir(t, dir, "mutation/service", AtomicMix); len(diags) != 0 {
		t.Fatalf("unmutated service copy not atomicmix-clean: %v", diags)
	}

	mutateFile(t, dir, "service.go",
		"submitted, completed, failures, resultHits atomic.Int64",
		"submitted, completed, resultHits atomic.Int64\n\tfailures int64")
	mutateFile(t, dir, "service.go", "s.failures.Add(1)", "atomic.AddInt64(&s.failures, 1)")
	mutateFile(t, dir, "service.go", "s.failures.Load()", "s.failures")

	diags := runOnDir(t, dir, "mutation/service", AtomicMix)
	src, err := os.ReadFile(filepath.Join(dir, "service.go"))
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + strings.Count(string(src[:strings.Index(string(src), "atomic.AddInt64(")]), "\n")
	if len(diags) != 1 || filepath.Base(diags[0].Pos.Filename) != "service.go" || diags[0].Pos.Line != want ||
		!strings.Contains(diags[0].Message, "sync/atomic.AddInt64") || !strings.Contains(diags[0].Message, "atomic.Int64") {
		t.Errorf("untyped failure counter: want one atomicmix diagnostic naming AddInt64 and atomic.Int64 at service.go:%d, got: %v", want, diags)
	}
}

// TestMutationHotAllocAppend makes the estimator's per-probe
// evaluation collect every γ into a fresh local slice. Nothing
// escapes, so the compiler's escape analysis (cmd/escapegate) stays
// silent, yet the slice grows from nothing on every dual probe.
// hotalloc must flag the append at its line in lt.go.
func TestMutationHotAllocAppend(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks internal/lt")
	}
	dir := copyPkgNonTest(t, filepath.Join("..", "lt"))
	if diags := runOnDir(t, dir, "mutation/lt", HotAlloc); len(diags) != 0 {
		t.Fatalf("unmutated lt copy not hotalloc-clean: %v", diags)
	}

	mutateFile(t, dir, "lt.go",
		"\tres := evalResult{feasible: true}\n\tfor i, j := range in.Jobs {\n\t\tg, tg := br[i].gamma(j, in.M, v, false)\n",
		"\tres := evalResult{feasible: true}\n\tvar gs []int\n\tfor i, j := range in.Jobs {\n\t\tg, tg := br[i].gamma(j, in.M, v, false)\n\t\tgs = append(gs, g)\n")

	diags := runOnDir(t, dir, "mutation/lt", HotAlloc)
	src, err := os.ReadFile(filepath.Join(dir, "lt.go"))
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + strings.Count(string(src[:strings.Index(string(src), "gs = append(gs, g)")]), "\n")
	if len(diags) != 1 || filepath.Base(diags[0].Pos.Filename) != "lt.go" || diags[0].Pos.Line != want ||
		!strings.Contains(diags[0].Message, "append grows a non-scratch slice") {
		t.Errorf("append to a fresh local in evaluate: want one hotalloc diagnostic at lt.go:%d, got: %v", want, diags)
	}
}
