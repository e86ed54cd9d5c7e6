package analysis

// The golden-corpus harness: each analyzer runs over a fixture package
// under testdata/src/<corpus>/ whose sources carry `// want "regexp"`
// comments marking the diagnostics the analyzer must produce on that
// line — the same contract as x/tools' analysistest, reimplemented on
// the local loader so the suite needs no dependency beyond the
// toolchain. A diagnostic without a matching want, or a want without a
// matching diagnostic, fails the test.

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var wantRe = regexp.MustCompile(`// want (.*)$`)
var wantArgRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// parseWants extracts the `// want "re" ["re" ...]` expectations from
// every source file of the corpus package.
func parseWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for name, src := range pkg.Sources {
		for i, line := range strings.Split(string(src), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			args := wantArgRe.FindAllStringSubmatch(m[1], -1)
			if len(args) == 0 {
				t.Fatalf("%s:%d: malformed want comment %q", name, i+1, line)
			}
			for _, a := range args {
				pat, err := strconv.Unquote(a[0])
				if err != nil {
					t.Fatalf("%s:%d: unquoting want pattern %s: %v", name, i+1, a[0], err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", name, i+1, pat, err)
				}
				wants = append(wants, &expectation{file: name, line: i + 1, re: re})
			}
		}
	}
	return wants
}

// runCorpus loads testdata/src/<corpus> under importPath, runs the
// analyzers, and checks the diagnostics against the want comments.
func runCorpus(t *testing.T, analyzers []*Analyzer, corpus, importPath string) {
	t.Helper()
	pkgDir, err := filepath.Abs(filepath.Join("testdata", "src", corpus))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(".", pkgDir, importPath)
	if err != nil {
		t.Fatalf("loading corpus %s: %v", corpus, err)
	}
	diags, err := Run([]*Package{pkg}, analyzers)
	if err != nil {
		t.Fatalf("running on corpus %s: %v", corpus, err)
	}
	wants := parseWants(t, pkg)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic %s: %s [%s]", d.Pos, d.Message, d.Analyzer)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestHotAllocCorpus(t *testing.T) {
	runCorpus(t, []*Analyzer{HotAlloc}, "hotalloc", "corpus/internal/hotalloc")
}

func TestFPConvCorpus(t *testing.T) {
	runCorpus(t, []*Analyzer{FPConv}, "fpconv", "corpus/internal/fpconv")
}

func TestCtxFlowCorpus(t *testing.T) {
	runCorpus(t, []*Analyzer{CtxFlow}, "ctxflow", "corpus/internal/ctxflow")
}

func TestResetCheckCorpus(t *testing.T) {
	runCorpus(t, []*Analyzer{ResetCheck}, "resetcheck", "corpus/internal/resetcheck")
}

func TestWireCodeCorpusScherr(t *testing.T) {
	ProtocolDocOverride = filepath.Join("testdata", "src", "wirecode", "PROTOCOL.md")
	defer func() { ProtocolDocOverride = "" }()
	runCorpus(t, []*Analyzer{WireCode}, "wirecode/scherr", "corpus/internal/scherr")
}

func TestWireCodeCorpusDaemon(t *testing.T) {
	ProtocolDocOverride = filepath.Join("testdata", "src", "wirecode", "PROTOCOL.md")
	defer func() { ProtocolDocOverride = "" }()
	runCorpus(t, []*Analyzer{WireCode}, "wirecode/daemon", "corpus/cmd/daemon")
}

func TestObsRegCorpus(t *testing.T) {
	ObservabilityDocOverride = filepath.Join("testdata", "src", "obsreg", "OBSERVABILITY.md")
	defer func() { ObservabilityDocOverride = "" }()
	runCorpus(t, []*Analyzer{ObsReg}, "obsreg/obs", "corpus/internal/obs")
	runCorpus(t, []*Analyzer{ObsReg}, "obsreg/client", "corpus/internal/client")
}

func TestPkgDocCorpus(t *testing.T) {
	runCorpus(t, []*Analyzer{PkgDoc}, "pkgdoc/nodoc", "corpus/internal/nodoc")
	runCorpus(t, []*Analyzer{PkgDoc}, "pkgdoc/good", "corpus/internal/good")
	runCorpus(t, []*Analyzer{PkgDoc}, "pkgdoc/cmd", "corpus/cmd/prog")
}

func TestScratchOwnCorpus(t *testing.T) {
	runCorpus(t, []*Analyzer{ScratchOwn}, "scratchown", "corpus/internal/scratchown")
}

func TestLockGuardCorpus(t *testing.T) {
	runCorpus(t, []*Analyzer{LockGuard}, "lockguard", "corpus/internal/lockguard")
}

func TestGoroLeakCorpus(t *testing.T) {
	runCorpus(t, []*Analyzer{GoroLeak}, "goroleak", "corpus/internal/goroleak")
}

func TestLockOrderCorpus(t *testing.T) {
	runCorpus(t, []*Analyzer{LockOrder}, "lockorder", "corpus/internal/lockorder")
}

func TestAtomicMixCorpus(t *testing.T) {
	runCorpus(t, []*Analyzer{AtomicMix}, "atomicmix", "corpus/internal/atomicmix")
}

// TestVetCopylocksCoversTypedAtomics pins the delegation behind
// atomicmix's narrow rule: a by-value copy of a typed atomic (assignment,
// range value, by-value argument) is caught by `go vet`'s copylocks,
// which CI runs, because each typed atomic embeds a noCopy. If a
// toolchain ever drops that, this fails instead of the guarantee
// disappearing silently.
func TestVetCopylocksCoversTypedAtomics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go vet")
	}
	dir := filepath.Join("testdata", "vetcopy")
	src, err := os.ReadFile(filepath.Join(dir, "copies.go"))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "vet", ".")
	cmd.Dir = dir
	out, _ := cmd.CombinedOutput()
	flagged := map[int]bool{}
	for _, m := range regexp.MustCompile(`copies\.go:(\d+):\d+: .*lock`).FindAllStringSubmatch(string(out), -1) {
		line, _ := strconv.Atoi(m[1])
		flagged[line] = true
	}
	marked := 0
	for i, line := range strings.Split(string(src), "\n") {
		if strings.HasSuffix(line, "// copylocks") {
			marked++
			if !flagged[i+1] {
				t.Errorf("copies.go:%d: go vet reported no copylocks finding for %q", i+1, strings.TrimSpace(line))
			}
		}
	}
	if marked == 0 {
		t.Fatal("no line of copies.go is marked // copylocks")
	}
	if t.Failed() {
		t.Logf("go vet output:\n%s", out)
	}
}

func TestChanRuleCorpus(t *testing.T) {
	runCorpus(t, []*Analyzer{ChanRule}, "chanrule", "corpus/internal/chanrule")
}

// TestIgnoreDirectives runs both fpconv and hotalloc so the
// wrong-analyzer fixture exercises the unused-directive diagnostic: an
// ignore only counts as stale when the analyzer it names actually ran
// (so `schedlint -run <subset>` never flags ignores for the analyzers
// it skipped).
func TestIgnoreDirectives(t *testing.T) {
	runCorpus(t, []*Analyzer{FPConv, HotAlloc}, "ignore", "corpus/internal/ignorecorpus")
}

// suiteAnalyzers is the full catalog the dogfood gate must run. A new
// analyzer that is not added here (and to All()) is not enforced
// anywhere; a removed one stops guarding its invariant silently. Both
// drifts fail TestTreeClean.
var suiteAnalyzers = []string{
	"hotalloc", "fpconv", "ctxflow", "resetcheck", "wirecode",
	"pkgdoc", "scratchown", "lockguard", "goroleak", "obsreg",
	"lockorder", "atomicmix", "chanrule",
}

// TestTreeClean is the dogfood gate: the full schedlint suite must run
// clean on the repository itself. CI runs the same check via
// `go run ./cmd/schedlint ./...`; this test keeps `go test ./...`
// equivalent to the CI gate.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole repository")
	}
	all := All()
	if len(all) != len(suiteAnalyzers) {
		t.Fatalf("All() returns %d analyzers, want %d", len(all), len(suiteAnalyzers))
	}
	have := map[string]bool{}
	for _, a := range all {
		have[a.Name] = true
	}
	for _, name := range suiteAnalyzers {
		if !have[name] {
			t.Fatalf("analyzer %q missing from All(); the dogfood gate no longer enforces it", name)
		}
	}
	pkgs := loadRepo(t)
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		t.Logf("%d finding(s); fix them or add a //schedlint:ignore with justification", len(diags))
	}
}

// TestSuiteBudget bounds the analysis phase's wall clock: the full
// 13-analyzer suite over the whole repository (loading excluded — that
// is the toolchain's go list/typecheck cost, shared with any build)
// must stay interactive. The PR 7 ten-analyzer baseline ran in ~0.15s
// warm; the budget is deliberately loose for slow CI machines, and the
// measured figure is logged so docs/PERFORMANCE.md can track the real
// number.
func TestSuiteBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole repository")
	}
	pkgs := loadRepo(t)
	start := time.Now()
	if _, err := Run(pkgs, All()); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	const budget = 5 * time.Second
	if elapsed > budget {
		t.Errorf("analysis phase took %v, over the %v budget; an analyzer regressed from near-linear", elapsed, budget)
	}
	t.Logf("analysis phase: %v across %d packages (%d analyzers)", elapsed, len(pkgs), len(All()))
}

// TestMain keeps the corpus fixtures honest: every corpus directory
// must be referenced by some test above (guards against orphaned
// fixtures after a rename).
func TestCorpusDirsCovered(t *testing.T) {
	covered := map[string]bool{
		"hotalloc": true, "fpconv": true, "ctxflow": true,
		"resetcheck": true, "wirecode": true, "pkgdoc": true,
		"ignore": true, "scratchown": true, "lockguard": true,
		"goroleak": true, "obsreg": true, "lockorder": true,
		"atomicmix": true, "chanrule": true,
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && !covered[e.Name()] {
			t.Errorf("corpus directory testdata/src/%s has no test driving it", e.Name())
		}
	}
}

// ignoreDirectives pins how many //schedlint:ignore directives the
// non-test code of repro/... carries. Each one is an exception to an
// invariant the suite enforces, so adding or removing one must be a
// visible, reviewed change to this constant rather than a silent drift.
// Mentions of the directive in doc comments and help text do not count;
// only comments the runner would parse as directives do.
const ignoreDirectives = 11

func TestIgnoreDirectiveCount(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole repository")
	}
	n := 0
	for _, p := range loadRepo(t) {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.HasPrefix(c.Text, ignorePrefix) {
						n++
					}
				}
			}
		}
	}
	if n != ignoreDirectives {
		t.Errorf("non-test code carries %d //schedlint:ignore directives, want %d: justify the change and update ignoreDirectives", n, ignoreDirectives)
	}
}
