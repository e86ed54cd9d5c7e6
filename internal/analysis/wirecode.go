package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// WireCode keeps the three copies of the moldschedd error-code
// vocabulary in lock step: the scherr sentinels and their Code*
// constants, the protocol-level code* constants of the serving layer
// (internal/netserve, or any main package declaring them), and
// the two "Error codes" tables of docs/PROTOCOL.md. PROTOCOL.md
// promises clients the codes are stable and exhaustive ("branch on the
// code, never the text"); this analyzer turns doc drift — a sentinel
// added without a wire code, a code renamed without touching the spec —
// into a build failure.
//
// On internal/scherr it checks that every exported Err* sentinel has an
// errors.Is branch in Code, every exported Code* constant is returned
// by Code, and the constant values exactly match the library table of
// PROTOCOL.md. On the serving layer it checks the protocol-level table
// the same way.
var WireCode = &Analyzer{
	Name: "wirecode",
	Doc:  "scherr sentinels, moldschedd wire codes, and docs/PROTOCOL.md must agree",
	Run:  runWireCode,
}

// ProtocolDocOverride, when non-empty, is used instead of
// <module root>/docs/PROTOCOL.md — the hook the golden corpora use to
// supply fixture docs.
var ProtocolDocOverride string

func runWireCode(pass *Pass) error {
	switch {
	case pass.Pkg.Name() == "scherr":
		return wireCheckScherr(pass)
	case (pass.Pkg.Name() == "main" || pass.Pkg.Name() == "netserve") && hasProtoConsts(pass):
		return wireCheckDaemon(pass)
	}
	return nil
}

// protocolTables parses the "## Error codes" section of PROTOCOL.md:
// the first markdown table lists the scherr (library) codes, the second
// the protocol-level codes. A missing doc is a diagnostic, not an
// error — the build must fail, not crash, when the spec is deleted.
func protocolTables(pass *Pass) (scherrCodes, protoCodes []string, ok bool) {
	path := ProtocolDocOverride
	if path == "" {
		if pass.ModRoot == "" {
			pass.Report(pass.Files[0].Package, "wirecode: cannot locate docs/PROTOCOL.md (unknown module root)")
			return nil, nil, false
		}
		path = filepath.Join(pass.ModRoot, "docs", "PROTOCOL.md")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		pass.Report(pass.Files[0].Package, "wirecode: cannot read %s: %v", path, err)
		return nil, nil, false
	}
	section := sectionOf(string(data), "## Error codes")
	if section == "" {
		pass.Report(pass.Files[0].Package, "wirecode: %s has no \"## Error codes\" section", path)
		return nil, nil, false
	}
	tables := codeTables(section)
	if len(tables) < 2 {
		pass.Report(pass.Files[0].Package, "wirecode: %s \"## Error codes\" must contain two tables (library codes, protocol codes); found %d", path, len(tables))
		return nil, nil, false
	}
	return tables[0], tables[1], true
}

// sectionOf extracts the body of a markdown section (from its heading
// to the next heading of the same level).
func sectionOf(doc, heading string) string {
	i := strings.Index(doc, heading)
	if i < 0 {
		return ""
	}
	body := doc[i+len(heading):]
	if j := strings.Index(body, "\n## "); j >= 0 {
		body = body[:j]
	}
	return body
}

var tableCodeRe = regexp.MustCompile("^\\|\\s*`([a-z_]+)`")

// codeTables extracts, per markdown table in the section, the
// backticked code of each row's first cell.
func codeTables(section string) [][]string {
	var tables [][]string
	var cur []string
	inTable := false
	for _, line := range strings.Split(section, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "|") {
			if !inTable {
				inTable = true
				cur = nil
			}
			if m := tableCodeRe.FindStringSubmatch(trimmed); m != nil {
				cur = append(cur, m[1])
			}
			continue
		}
		if inTable {
			tables = append(tables, cur)
			inTable = false
		}
	}
	if inTable {
		tables = append(tables, cur)
	}
	return tables
}

// wireCheckScherr verifies the library half of the vocabulary.
func wireCheckScherr(pass *Pass) error {
	scope := pass.Pkg.Scope()
	var sentinels []string        // exported Err* error vars
	consts := map[string]string{} // Code* name → value
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		switch {
		case strings.HasPrefix(name, "Err") && obj.Exported():
			if _, ok := obj.(*types.Var); ok && isErrorType(obj.Type()) {
				sentinels = append(sentinels, name)
			}
		case strings.HasPrefix(name, "Code") && name != "Code" && obj.Exported():
			if c, ok := obj.(*types.Const); ok {
				consts[name] = constString(c)
			}
		}
	}
	sort.Strings(sentinels)

	codeFn := findFunc(pass, "Code")
	if codeFn == nil {
		pass.Report(pass.Files[0].Package, "wirecode: package scherr must define func Code(error) string mapping sentinels to wire codes")
		return nil
	}
	handled := map[string]bool{}  // sentinel names appearing in errors.Is(err, ErrX)
	returned := map[string]bool{} // Code* const names returned
	ast.Inspect(codeFn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Is" && len(n.Args) == 2 {
				if id, ok := ast.Unparen(n.Args[1]).(*ast.Ident); ok {
					handled[id.Name] = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if id, ok := ast.Unparen(r).(*ast.Ident); ok {
					returned[id.Name] = true
				}
			}
		}
		return true
	})
	for _, s := range sentinels {
		if !handled[s] {
			pass.Report(codeFn.Pos(), "wirecode: sentinel %s has no errors.Is branch in Code — it would report %q on the wire", s, "internal")
		}
	}
	for name := range consts {
		if !returned[name] {
			pass.Report(codeFn.Pos(), "wirecode: wire-code constant %s is never returned by Code", name)
		}
	}

	docCodes, _, ok := protocolTables(pass)
	if !ok {
		return nil
	}
	compareCodeSets(pass, codeFn.Pos(), "scherr", constValues(consts), docCodes)
	return nil
}

// hasProtoConsts reports whether the package declares unexported
// string constants named code* — the moldschedd protocol-level codes.
func hasProtoConsts(pass *Pass) bool { return len(protoConsts(pass)) > 0 }

func protoConsts(pass *Pass) map[string]string {
	out := map[string]string{}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		if !strings.HasPrefix(name, "code") {
			continue
		}
		if c, ok := scope.Lookup(name).(*types.Const); ok {
			if b, ok := c.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				out[name] = constString(c)
			}
		}
	}
	return out
}

// wireCheckDaemon verifies the protocol half of the vocabulary.
func wireCheckDaemon(pass *Pass) error {
	_, docProto, ok := protocolTables(pass)
	if !ok {
		return nil
	}
	compareCodeSets(pass, pass.Files[0].Package, "protocol", constValues(protoConsts(pass)), docProto)
	return nil
}

// compareCodeSets reports the symmetric difference between the codes
// the source declares and the codes the doc table lists.
func compareCodeSets(pass *Pass, pos token.Pos, which string, src, doc []string) {
	srcSet, docSet := toSet(src), toSet(doc)
	for _, c := range src {
		if !docSet[c] {
			pass.Report(pos, "wirecode: %s code %q is not in the %s table of docs/PROTOCOL.md — document it", which, c, which)
		}
	}
	for _, c := range doc {
		if !srcSet[c] {
			pass.Report(pos, "wirecode: docs/PROTOCOL.md %s table lists %q but no constant produces it — stale doc or missing code", which, c)
		}
	}
}

func toSet(ss []string) map[string]bool {
	m := make(map[string]bool, len(ss))
	for _, s := range ss {
		m[s] = true
	}
	return m
}

func constValues(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func constString(c *types.Const) string {
	s := c.Val().ExactString()
	if len(s) >= 2 && s[0] == '"' {
		return s[1 : len(s)-1]
	}
	return s
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return types.Identical(t, types.Universe.Lookup("error").Type())
	}
	return named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// findFunc returns the body-bearing declaration of a package-level
// function by name, or nil.
func findFunc(pass *Pass, name string) *ast.FuncDecl {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == name && fn.Body != nil {
				return fn
			}
		}
	}
	return nil
}
