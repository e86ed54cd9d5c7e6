package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// The go-list cache: schedlint and escapegate both start by shelling
// `go list -deps -export -json`, which costs about half of either
// tool's warm wall time (docs/PERFORMANCE.md). The listing is a pure
// function of the toolchain, the module's location and files, and the
// arguments, so it is cached on disk keyed by a hash of exactly those
// inputs: Go version + GOOS/GOARCH, the module root's absolute path
// (the listing records absolute Dirs, so two checkouts with identical
// sources must not share one), the argument vector, go.mod/go.sum, and
// the path + content of every non-testdata .go file under the module
// root.
// Any source edit changes the key, which also keeps the cached Export
// paths honest — `go list -export` refreshes export data as sources
// change, so a stale cache entry could otherwise point at outdated
// .a files. As a second guard, a hit is only used if every recorded
// export file still exists (the build cache may have been trimmed).
// Entries live in schedlint/golist-<key>.json under os.UserCacheDir().

// cachedGoList consults the on-disk cache before shelling out. Cache
// failures of any kind fall back to the real go list — the cache is an
// optimization, never a correctness dependency.
func cachedGoList(dir string, args ...string) ([]listedPackage, error) {
	path, ok := listCachePath(dir, args)
	if !ok {
		return goList(dir, args...)
	}
	if pkgs, ok := readListCache(path); ok {
		return pkgs, nil
	}
	pkgs, err := goList(dir, args...)
	if err != nil {
		return nil, err
	}
	writeListCache(path, pkgs)
	return pkgs, nil
}

// listCachePath computes the cache file for (dir, args), hashing the
// module state. Returns ok=false when no module root or cache dir is
// available.
func listCachePath(dir string, args []string) (string, bool) {
	modRoot := findModRoot(dir)
	if modRoot == "" {
		return "", false
	}
	cacheDir, err := os.UserCacheDir()
	if err != nil {
		return "", false
	}
	h := sha256.New()
	fmt.Fprintf(h, "go=%s os=%s arch=%s\n", runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(h, "root=%s\n", filepath.Clean(modRoot))
	fmt.Fprintf(h, "args=%q\n", args)
	var files []string
	filepath.WalkDir(modRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return "", false
		}
		rel, _ := filepath.Rel(modRoot, f)
		fmt.Fprintf(h, "file=%s len=%d\n", filepath.ToSlash(rel), len(src))
		h.Write(src)
	}
	key := hex.EncodeToString(h.Sum(nil))
	return filepath.Join(cacheDir, "schedlint", "golist-"+key+".json"), true
}

// findModRoot walks up from dir to the enclosing go.mod.
func findModRoot(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return ""
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return ""
		}
		abs = parent
	}
}

// readListCache loads a cached listing, rejecting it if any recorded
// export-data file has been garbage-collected from the build cache.
func readListCache(path string) ([]listedPackage, bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	var pkgs []listedPackage
	if err := json.Unmarshal(raw, &pkgs); err != nil {
		return nil, false
	}
	for _, p := range pkgs {
		if p.Export != "" {
			if _, err := os.Stat(p.Export); err != nil {
				return nil, false
			}
		}
	}
	return pkgs, true
}

// writeListCache persists the listing atomically (temp file + rename);
// failures are ignored — next run just re-shells.
func writeListCache(path string, pkgs []listedPackage) {
	raw, err := json.Marshal(pkgs)
	if err != nil {
		return
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "golist-*.tmp")
	if err != nil {
		return
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return
	}
	if err := tmp.Close(); err != nil {
		return
	}
	os.Rename(tmp.Name(), path)
}
