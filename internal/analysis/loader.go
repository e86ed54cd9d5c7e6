package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
)

// Package is one loaded, typechecked package: the unit the analyzers
// run on.
type Package struct {
	PkgPath string
	Name    string
	Dir     string
	ModRoot string
	Fset    *token.FileSet
	Files   []*ast.File
	Sources map[string][]byte // filename → source, for directive parsing
	Types   *types.Package
	Info    *types.Info

	cfgs map[*ast.BlockStmt]*cfg // lazily built per function scope; see cfgOf
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Module     *struct {
		Dir  string
		Main bool
	}
}

// goList runs `go list` in dir with the given arguments and decodes the
// JSON stream.
func goList(dir string, args ...string) ([]listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", args, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []listedPackage
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding: %v", args, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

const listFields = "-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly,Module"

// Load typechecks the packages matched by patterns (resolved relative
// to dir, e.g. "./..."), excluding test files and packages outside the
// main module. It shells out to `go list -deps -export` for dependency
// export data, so it works offline against the build cache and needs
// nothing beyond the standard toolchain.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, append([]string{"-deps", "-export", listFields}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	var targets []listedPackage
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard && p.Module != nil && p.Module.Main {
			targets = append(targets, p)
		}
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var out []*Package
	for _, t := range targets {
		modRoot := ""
		if t.Module != nil {
			modRoot = t.Module.Dir
		}
		pkg, err := typecheck(fset, imp, t, modRoot)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// exportImporter returns a go/types importer that resolves every
// import from the gc export data files recorded in exports.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("schedlint: no export data for %q", path)
		}
		return os.Open(f)
	})
}

// typecheck parses and typechecks one listed package.
func typecheck(fset *token.FileSet, imp types.Importer, t listedPackage, modRoot string) (*Package, error) {
	files := make([]*ast.File, 0, len(t.GoFiles))
	sources := make(map[string][]byte, len(t.GoFiles))
	for _, gf := range t.GoFiles {
		name := filepath.Join(t.Dir, gf)
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		sources[name] = src
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
	}
	tpkg, err := conf.Check(t.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("schedlint: typechecking %s: %v", t.ImportPath, err)
	}
	return &Package{
		PkgPath: t.ImportPath,
		Name:    tpkg.Name(),
		Dir:     t.Dir,
		ModRoot: modRoot,
		Fset:    fset,
		Files:   files,
		Sources: sources,
		Types:   tpkg,
		Info:    info,
	}, nil
}

// LoadDir parses and typechecks a single directory of Go files outside
// the module build (the golden corpora under testdata/), presenting it
// under the given import path. Imports are restricted to what `go list
// -deps -export` can resolve from moduleDir — in practice the standard
// library.
func LoadDir(moduleDir, pkgDir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(pkgDir)
	if err != nil {
		return nil, err
	}
	t := listedPackage{ImportPath: importPath, Dir: pkgDir}
	imports := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(pkgDir, e.Name()), nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		t.GoFiles = append(t.GoFiles, e.Name())
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil {
				imports[path] = true
			}
		}
	}
	if len(t.GoFiles) == 0 {
		return nil, fmt.Errorf("schedlint: no Go files in %s", pkgDir)
	}
	exports := map[string]string{}
	if len(imports) > 0 {
		listed, err := goList(moduleDir, append([]string{"-deps", "-export", listFields}, slices.Collect(maps.Keys(imports))...)...)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	fset := token.NewFileSet()
	return typecheck(fset, exportImporter(fset, exports), t, "")
}
