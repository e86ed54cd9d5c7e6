// Command schedlint runs the repo's custom static-analysis suite (the
// analyzers in internal/analysis) over the given package patterns and
// exits non-zero if any diagnostic survives suppression. It is the
// compile-time enforcement arm of the invariant catalog in DESIGN.md
// §9: zero-allocation hot paths, epsilon-guarded float→int rounding,
// context propagation with no root context outside package main
// (ctxflow), wire-protocol/doc coherence, Reset completeness, package
// documentation, scratch-buffer ownership (scratchown), sync.Mutex
// discipline on //sched:guardedby fields with sync.RWMutex banned
// (lockguard), goroutine join paths (goroleak), no nested locking,
// directly or through a call in any package (lockorder), no untyped
// sync/atomic API (atomicmix; typed-atomic copies are left to `go
// vet`'s copylocks), and channel ownership with no send while a mutex
// is held (chanrule).
//
// Usage:
//
//	go run ./cmd/schedlint ./...
//	go run ./cmd/schedlint -run hotalloc,fpconv ./internal/fast
//
// Findings print as file:line:col: message [analyzer], one per line;
// -json switches to one JSON object per line
// ({"file","line","col","analyzer","message"}) for toolchain
// integration — CI pairs the default format with a GitHub Actions
// problem matcher (.github/schedlint-problem-matcher.json) so findings
// annotate the diff. Suppress an individual finding with an inline
// directive carrying a justification:
//
//	//schedlint:ignore hotalloc one-time warm-up growth, guarded so steady-state reuse never re-allocates
//
// Unused or malformed directives are themselves diagnostics, so stale
// suppressions cannot accumulate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	runFlag := flag.String("run", "", "comma-separated subset of analyzers to run (default: all)")
	listFlag := flag.Bool("list", false, "list available analyzers and exit")
	jsonFlag := flag.Bool("json", false, "emit one JSON diagnostic per line instead of the human format")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: schedlint [-run a,b] [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listFlag {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := analysis.All()
	if *runFlag != "" {
		sel, unknown := analysis.ByName(strings.Split(*runFlag, ","))
		if len(unknown) > 0 {
			fmt.Fprintf(os.Stderr, "schedlint: unknown analyzers: %s\n", strings.Join(unknown, ", "))
			os.Exit(2)
		}
		analyzers = sel
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "schedlint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "schedlint: %v\n", err)
		os.Exit(2)
	}

	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "schedlint: %v\n", err)
		os.Exit(2)
	}
	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		if *jsonFlag {
			// One object per line: trivially greppable, and the shape
			// GitHub's problem-matcher JSON schema can also consume.
			enc.Encode(struct {
				File     string `json:"file"`
				Line     int    `json:"line"`
				Col      int    `json:"col"`
				Analyzer string `json:"analyzer"`
				Message  string `json:"message"`
			}{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message})
			continue
		}
		fmt.Printf("%s: %s [%s]\n", d.Pos, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "schedlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
