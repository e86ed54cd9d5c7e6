// Command escapegate is the compile-time half of the allocation gate:
// it runs the gc compiler's escape analysis (`go build -gcflags=-m=2`)
// over every package containing a //sched:hotpath function, attributes
// the "escapes to heap"/"moved to heap" diagnostics to those
// functions, and compares the result against a committed baseline
// (ESCAPE_PR9.json) — the same snapshot-and-gate contract as
// cmd/benchreport, but catching allocation regressions at compile time
// instead of waiting for an allocs/op benchmark to drift.
//
// Two modes:
//
//	# snapshot: record today's escape/inlining facts
//	go run ./cmd/escapegate -out ESCAPE_PR9.json
//
//	# gate: fail (exit 1) if a hot-path function gained a heap escape
//	# or a previously inlinable one stopped inlining
//	go run ./cmd/escapegate -check ESCAPE_PR9.json
//
// Per hot-path function the snapshot stores the multiset of escape
// messages (positions stripped, so unrelated edits above a function
// don't invalidate the baseline) and whether the compiler can inline
// it. The gate fails on: a new escape message, more occurrences of a
// known one, an inlinable function that stopped inlining, or a
// baseline function that no longer exists (refresh the snapshot).
// Functions added since the snapshot are gated against empty — a brand
// new hot-path function must start escape-clean.
//
// Go 1.24's build cache replays compiler diagnostics, so warm runs
// cost well under a second; no -a rebuild is needed. Baselines are
// toolchain-specific (escape analysis changes between releases):
// -check refuses a baseline from a different Go version unless
// -allow-go-mismatch is set.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// FuncFacts is one hot-path function's compiler-derived facts.
type FuncFacts struct {
	// Inline reports whether the compiler can inline the function.
	Inline bool `json:"inline"`
	// Escapes maps a position-stripped escape message ("&x escapes to
	// heap", "make([]T, n) escapes to heap") to its occurrence count
	// within the function body.
	Escapes map[string]int `json:"escapes,omitempty"`
}

// Report is the snapshot schema, keyed by "<relfile>:<qualified name>".
type Report struct {
	Version   int                  `json:"version"`
	Go        string               `json:"go"`
	Packages  []string             `json:"packages"`
	Functions map[string]FuncFacts `json:"functions"`
}

func main() {
	var (
		out      = flag.String("out", "", "write the JSON snapshot to this file (default stdout)")
		check    = flag.String("check", "", "compare against this baseline snapshot instead of writing one")
		patterns = flag.String("patterns", "./...", "package patterns to scan for //sched:hotpath functions")
		anyGo    = flag.Bool("allow-go-mismatch", false, "permit -check against a baseline from a different Go toolchain")
	)
	flag.Parse()
	if *out != "" && *check != "" {
		fatalf("-out and -check are mutually exclusive")
	}

	rep, err := scan(*patterns)
	if err != nil {
		fatalf("%v", err)
	}

	if *check != "" {
		base, err := loadReport(*check)
		if err != nil {
			fatalf("loading baseline: %v", err)
		}
		if base.Go != rep.Go && !*anyGo {
			fatalf("baseline %s was made with %s but this is %s; escape analysis differs across releases — regenerate the baseline or pass -allow-go-mismatch",
				*check, base.Go, rep.Go)
		}
		failures := compare(base, rep)
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "escapegate: "+f)
		}
		if len(failures) > 0 {
			fmt.Fprintf(os.Stderr, "escapegate: %d failure(s) against %s; if intended, refresh with: go run ./cmd/escapegate -out %s\n",
				len(failures), *check, *check)
			os.Exit(1)
		}
		fmt.Printf("escapegate: %d hot-path function(s) across %d package(s) match %s\n",
			len(rep.Functions), len(rep.Packages), *check)
		return
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("escapegate: wrote %s (%d functions, %d packages)\n", *out, len(rep.Functions), len(rep.Packages))
}

// scan records the compiler's escape and inlining facts for every
// //sched:hotpath function in the packages matching patterns.
func scan(patterns string) (Report, error) {
	spans, pkgs, modRoot, err := discoverHotpath(patterns)
	if err != nil {
		return Report{}, err
	}
	if len(spans) == 0 {
		return Report{}, fmt.Errorf("no //sched:hotpath functions found under %s", patterns)
	}
	transcript, err := runEscapeAnalysis(modRoot, pkgs)
	if err != nil {
		return Report{}, err
	}
	return Report{
		Version:   1,
		Go:        runtime.Version(),
		Packages:  pkgs,
		Functions: attribute(spans, parseEscapeOutput(transcript)),
	}, nil
}

// span is one //sched:hotpath function's source extent.
type span struct {
	file       string // module-root-relative path
	name       string // qualified name: F, T.M, or (*T).M
	start, end int    // 1-based line range; start is the `func` keyword line
}

func (s span) key() string { return s.file + ":" + s.name }

// discoverHotpath loads the module's packages and collects the source
// spans of every //sched:hotpath function plus the sorted import paths
// of the packages containing one.
func discoverHotpath(patterns string) ([]span, []string, string, error) {
	pkgs, err := analysis.Load(".", strings.Fields(patterns)...)
	if err != nil {
		return nil, nil, "", err
	}
	var spans []span
	pkgSet := map[string]bool{}
	modRoot := ""
	for _, pkg := range pkgs {
		if pkg.ModRoot != "" {
			modRoot = pkg.ModRoot
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := declAsFunc(decl)
				if !ok || !analysis.HasHotpathDirective(fd) {
					continue
				}
				pos := pkg.Fset.Position(fd.Pos())
				end := pkg.Fset.Position(fd.End())
				rel := pos.Filename
				if modRoot != "" {
					if r, err := filepath.Rel(modRoot, pos.Filename); err == nil {
						rel = filepath.ToSlash(r)
					}
				}
				spans = append(spans, span{
					file:  rel,
					name:  qualName(fd),
					start: pos.Line,
					end:   end.Line,
				})
				pkgSet[pkg.PkgPath] = true
			}
		}
	}
	var pkgList []string
	for p := range pkgSet {
		pkgList = append(pkgList, p)
	}
	sort.Strings(pkgList)
	sort.Slice(spans, func(i, j int) bool { return spans[i].key() < spans[j].key() })
	return spans, pkgList, modRoot, nil
}

// runEscapeAnalysis builds the packages with -m=2 and returns the
// compiler's combined diagnostics.
func runEscapeAnalysis(dir string, pkgs []string) (string, error) {
	args := append([]string{"build", "-gcflags=-m=2"}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build -gcflags=-m=2: %v\n%s", err, out)
	}
	return string(out), nil
}

func loadReport(path string) (Report, error) {
	var r Report
	raw, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("%s: %v", path, err)
	}
	return r, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "escapegate: "+format+"\n", args...)
	os.Exit(2)
}
