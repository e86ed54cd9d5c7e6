package main

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// spans matching the canned transcript: Hot covers lines 10–20 (the
// escapes at 12 and 14 belong to it, the one at 50 does not), Leaf is
// the inlinable one-liner at 30–32.
var testSpans = []span{
	{file: "internal/pkg/hot.go", name: "Hot", start: 10, end: 20},
	{file: "internal/pkg/hot.go", name: "Leaf", start: 30, end: 32},
}

func loadTranscript(t *testing.T) []escEvent {
	t.Helper()
	raw, err := os.ReadFile("testdata/m2.txt")
	if err != nil {
		t.Fatal(err)
	}
	return parseEscapeOutput(string(raw))
}

func TestParseEscapeOutput(t *testing.T) {
	events := loadTranscript(t)
	var escapes, inlines int
	for _, ev := range events {
		if ev.isEscape {
			escapes++
		}
		if ev.isInline {
			inlines++
		}
	}
	// The duplicated "make([]int, n) escapes to heap" (flow-detail
	// variant with trailing colon + bare repeat) must collapse to one
	// event; flow lines and "does not escape" are not events.
	if escapes != 3 {
		t.Errorf("escapes = %d, want 3 (make, moved-to-heap x, v)", escapes)
	}
	if inlines != 3 {
		t.Errorf("inline verdicts = %d, want 3 (Hot, Leaf, Cold)", inlines)
	}
	for _, ev := range events {
		if ev.isInline && ev.funcName == "Hot" && ev.canInline {
			t.Errorf("Hot parsed as inlinable; transcript says cannot inline")
		}
		if ev.isInline && ev.funcName == "Leaf" && !ev.canInline {
			t.Errorf("Leaf parsed as not inlinable; transcript says can inline")
		}
	}
}

func TestAttribute(t *testing.T) {
	funcs := attribute(testSpans, loadTranscript(t))
	hot := funcs["internal/pkg/hot.go:Hot"]
	if hot.Inline {
		t.Errorf("Hot.Inline = true, want false")
	}
	if n := hot.Escapes["make([]int, n) escapes to heap"]; n != 1 {
		t.Errorf("Hot make escape count = %d, want 1 (dedupe of the colon/bare pair)", n)
	}
	if n := hot.Escapes["moved to heap: x"]; n != 1 {
		t.Errorf("Hot moved-to-heap count = %d, want 1", n)
	}
	if len(hot.Escapes) != 2 {
		t.Errorf("Hot escapes = %v, want exactly the two in-span messages (line 50 is outside)", hot.Escapes)
	}
	leaf := funcs["internal/pkg/hot.go:Leaf"]
	if !leaf.Inline {
		t.Errorf("Leaf.Inline = false, want true (verdict attributed by decl line)")
	}
	if len(leaf.Escapes) != 0 {
		t.Errorf("Leaf escapes = %v, want none", leaf.Escapes)
	}
}

func TestCompare(t *testing.T) {
	cur := Report{Functions: attribute(testSpans, loadTranscript(t))}

	identical := Report{Functions: attribute(testSpans, loadTranscript(t))}
	if f := compare(identical, cur); len(f) != 0 {
		t.Errorf("identical reports: failures %v, want none", f)
	}

	// A new escape message fails.
	noMake := Report{Functions: map[string]FuncFacts{
		"internal/pkg/hot.go:Hot":  {Escapes: map[string]int{"moved to heap: x": 1}},
		"internal/pkg/hot.go:Leaf": {Inline: true},
	}}
	if f := compare(noMake, cur); len(f) != 1 {
		t.Errorf("new-escape case: failures %v, want exactly 1", f)
	}

	// More occurrences of a known message fail.
	fewer := Report{Functions: map[string]FuncFacts{
		"internal/pkg/hot.go:Hot": {Escapes: map[string]int{
			"make([]int, n) escapes to heap": 1, "moved to heap: x": 1}},
		"internal/pkg/hot.go:Leaf": {Inline: true},
	}}
	doubled := Report{Functions: map[string]FuncFacts{
		"internal/pkg/hot.go:Hot": {Escapes: map[string]int{
			"make([]int, n) escapes to heap": 2, "moved to heap: x": 1}},
		"internal/pkg/hot.go:Leaf": {Inline: true},
	}}
	if f := compare(fewer, doubled); len(f) != 1 {
		t.Errorf("count-increase case: failures %v, want exactly 1", f)
	}
	// ...but fewer occurrences than baseline pass (stale-but-safe).
	if f := compare(doubled, fewer); len(f) != 0 {
		t.Errorf("count-decrease case: failures %v, want none", f)
	}

	// An inlinable function that stopped inlining fails.
	leafStuck := Report{Functions: map[string]FuncFacts{
		"internal/pkg/hot.go:Hot": {Escapes: map[string]int{
			"make([]int, n) escapes to heap": 1, "moved to heap: x": 1}},
		"internal/pkg/hot.go:Leaf": {Inline: false},
	}}
	if f := compare(cur, leafStuck); len(f) != 1 {
		t.Errorf("inline-regression case: failures %v, want exactly 1", f)
	}

	// A baseline function missing from the tree fails (rename/refresh).
	gone := Report{Functions: map[string]FuncFacts{
		"internal/pkg/hot.go:Hot": cur.Functions["internal/pkg/hot.go:Hot"],
	}}
	if f := compare(cur, gone); len(f) != 1 {
		t.Errorf("missing-function case: failures %v, want exactly 1", f)
	}

	// A function new since the baseline is gated against empty: its
	// escapes fail, a clean one passes.
	if f := compare(gone, cur); len(f) != 0 {
		t.Errorf("new clean function: failures %v, want none (Leaf has no escapes)", f)
	}
	onlyLeaf := Report{Functions: map[string]FuncFacts{
		"internal/pkg/hot.go:Leaf": {Inline: true},
	}}
	if f := compare(onlyLeaf, cur); len(f) != 2 {
		t.Errorf("new escaping function: failures %v, want 2 (Hot's two messages)", f)
	}
}

func TestQualNameAndSpans(t *testing.T) {
	// End-to-end over the real repository: discovery must find the
	// hot-path set and every span key must be stable. Discovery is
	// cwd-relative (the tool runs from the module root), so hop up
	// from the package directory.
	t.Chdir("../..")
	spans, pkgs, modRoot, err := discoverHotpath("./...")
	if err != nil {
		t.Fatal(err)
	}
	if modRoot == "" {
		t.Fatal("no module root")
	}
	if len(spans) == 0 || len(pkgs) == 0 {
		t.Fatalf("found %d spans in %d packages, want some of each", len(spans), len(pkgs))
	}
	seen := map[string]bool{}
	for _, s := range spans {
		if s.start <= 0 || s.end < s.start {
			t.Errorf("%s: bad span %d-%d", s.key(), s.start, s.end)
		}
		if seen[s.key()] {
			t.Errorf("duplicate span key %s", s.key())
		}
		seen[s.key()] = true
	}
}

// TestTreeMatchesSnapshot is the escape gate under `go test ./...`: the
// comparison `go run ./cmd/escapegate -check ESCAPE_PR9.json` makes,
// run on the repository itself, as TestTreeClean does for schedlint.
// Heap escapes in //sched:hotpath functions are gated here and nowhere
// else statically (hotalloc covers only what escape analysis cannot
// see), so this keeps `go test ./...` equivalent to the CI gate.
func TestTreeMatchesSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every hot-path package with -gcflags=-m=2")
	}
	base, err := loadReport(filepath.Join("..", "..", "ESCAPE_PR9.json"))
	if err != nil {
		t.Fatal(err)
	}
	if base.Go != runtime.Version() {
		t.Skipf("snapshot was made with %s but this is %s; escape analysis differs across releases", base.Go, runtime.Version())
	}
	rep, err := scan("repro/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range compare(base, rep) {
		t.Error(f)
	}
}
