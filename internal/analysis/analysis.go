// Package analysis is schedlint: a suite of repo-specific static
// analyzers that turn the invariants this codebase depends on — the
// zero-allocation scratch discipline of internal/arena (DESIGN.md §6),
// the epsilon-guarded float→int rounding rule of internal/compress
// (the PR 5 off-by-one class), context-first propagation, the
// scherr/moldschedd wire-code table of docs/PROTOCOL.md, and the
// Reset-touches-every-buffer rule behind schedule.DoubleBuffer — into
// machine-checked build failures instead of conventions (DESIGN.md §9
// catalogs each invariant).
//
// The package is shaped like golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) but is self-contained on the standard library: the
// loader (loader.go) shells out to `go list -deps -export -json` and
// typechecks with go/types against gc export data, so the suite builds
// and runs with no dependencies beyond the toolchain. cmd/schedlint is
// the multichecker; `go test ./internal/analysis/...` runs the golden
// corpora under testdata/ and the tree-wide dogfood test that keeps
// ./... clean.
//
// Findings are suppressed — never silently — with an inline directive
// on the offending line or the line above:
//
//	//schedlint:ignore <analyzer>[,<analyzer>...] <justification>
//
// The justification is mandatory; an ignore without one is itself a
// diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// An Analyzer describes one schedlint check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //schedlint:ignore directives.
	Name string
	// Doc is a one-paragraph description: the invariant enforced and
	// the bug class that motivated it.
	Doc string
	// Run applies the analyzer to one package. Nil for analyzers that
	// only work whole-module (RunModule).
	Run func(*Pass) error
	// RunModule, when non-nil, applies the analyzer once per
	// invocation to every loaded package together — the hook for
	// whole-repo properties (lockorder's may-acquire summaries, which
	// cross packages) that no single package can decide.
	RunModule func(*ModulePass) error
}

// A Pass is one (analyzer, package) unit of work, mirroring
// go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Dir is the package's source directory on disk (used by wirecode
	// to locate docs/PROTOCOL.md relative to the module root).
	Dir string
	// ModRoot is the module root directory ("" when unknown).
	ModRoot string

	owner       *Package // loaded package behind this pass (CFG cache)
	diagnostics *[]Diagnostic
}

// A ModulePass is one (analyzer, whole module) unit of work: every
// loaded package at once, for the whole-repo analyzers.
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Package

	diagnostics *[]Diagnostic
}

// Report records a finding at a precomputed position. Module passes
// span file sets, so positions are resolved by the caller (each
// Package carries its own Fset).
func (p *ModulePass) Report(pos token.Position, format string, args ...any) {
	*p.diagnostics = append(*p.diagnostics, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	*p.diagnostics = append(*p.diagnostics, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.TypesInfo.TypeOf(e) }

// ObjectOf returns the object an identifier denotes (use or def), or
// nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return p.TypesInfo.Defs[id]
}

// isNamed reports whether t, or the type t points to, is the named
// type pkgPath.name for one of names.
func isNamed(t types.Type, pkgPath string, names ...string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != pkgPath {
		return false
	}
	return slices.Contains(names, named.Obj().Name())
}

// directive is the prefix of the hot-path marker comment. The comment
// form //sched:hotpath (no space — a Go directive comment) on a
// function's doc group marks it for the hotalloc analyzer,
// cmd/escapegate and the reachability meta-test.
const hotpathDirective = "//sched:hotpath"

// ownsResultDirective marks a function that intentionally hands out
// scratch-owned storage (views into a *Scratch/arena buffer), whether
// by returning it or by publishing it through an out-parameter: the
// documented PR 3 contract "result valid until the scratch's next use;
// Clone to keep it". The scratchown analyzer suppresses its escape
// diagnostics on such functions — and, keeping the claim honest, flags
// the directive when the function never actually hands out a
// scratch-derived value.
const ownsResultDirective = "//sched:owns-result"

// hasFuncDirective reports whether the function declaration carries the
// given //sched:* directive in its doc comment group.
func hasFuncDirective(fn *ast.FuncDecl, directive string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(c.Text, directive) {
			rest := strings.TrimPrefix(c.Text, directive)
			if rest == "" || rest[0] == ' ' || rest[0] == '\t' {
				return true
			}
		}
	}
	return false
}

// HasHotpathDirective reports whether the function declaration carries
// the //sched:hotpath directive in its doc comment group.
func HasHotpathDirective(fn *ast.FuncDecl) bool {
	return hasFuncDirective(fn, hotpathDirective)
}

// HasOwnsResultDirective reports whether the function declaration
// carries the //sched:owns-result directive in its doc comment group.
func HasOwnsResultDirective(fn *ast.FuncDecl) bool {
	return hasFuncDirective(fn, ownsResultDirective)
}

// ignoreDirective records one parsed //schedlint:ignore comment.
type ignoreDirective struct {
	file      string
	line      int             // line the directive suppresses
	analyzers map[string]bool // suppressed analyzer names
	reason    string
	used      bool
}

const ignorePrefix = "//schedlint:ignore"

// parseIgnores extracts the //schedlint:ignore directives of a file,
// keyed by the line they suppress: the directive's own line when it
// trails code, the following line when it stands alone (src is the
// file's source, used to tell the two apart). Malformed directives (no
// analyzer list, or no justification) are reported as diagnostics of
// the runner itself.
func parseIgnores(fset *token.FileSet, f *ast.File, src []byte, report func(pos token.Pos, msg string)) []*ignoreDirective {
	var out []*ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				report(c.Pos(), "malformed //schedlint:ignore: need \"<analyzer>[,<analyzer>] <justification>\"")
				continue
			}
			names := map[string]bool{}
			for _, n := range strings.Split(fields[0], ",") {
				if n != "" {
					names[n] = true
				}
			}
			pos := fset.Position(c.Pos())
			line := pos.Line
			// A directive alone on its line suppresses the next line.
			if startsLine(fset, c.Pos(), src) {
				line++
			}
			out = append(out, &ignoreDirective{
				file: pos.Filename, line: line, analyzers: names,
				reason: strings.Join(fields[1:], " "),
			})
		}
	}
	return out
}

// startsLine reports whether only whitespace precedes pos on its line,
// i.e. the comment starting at pos does not trail code.
func startsLine(fset *token.FileSet, pos token.Pos, src []byte) bool {
	off := fset.Position(pos).Offset
	if off > len(src) {
		return false
	}
	for i := off - 1; i >= 0; i-- {
		switch src[i] {
		case ' ', '\t':
			continue
		case '\n', '\r':
			return true
		default:
			return false
		}
	}
	return true
}

// filterSuppressed drops diagnostics covered by an ignore directive of
// the right analyzer on the right line, and appends a diagnostic for
// every directive that suppressed nothing (so stale ignores cannot
// accumulate).
func filterSuppressed(diags []Diagnostic, ignoresByFile map[string][]*ignoreDirective) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		suppressed := false
		for _, ig := range ignoresByFile[d.Pos.Filename] {
			if ig.line == d.Pos.Line && ig.analyzers[d.Analyzer] {
				ig.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}
