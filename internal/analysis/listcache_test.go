package analysis

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestListCacheKeyedByModuleRoot loads two byte-identical copies of a
// module, A then B, through one user cache. The cached go list
// listing records absolute package directories, so if B reused A's
// entry it would be typechecked — and its findings reported — from
// A's files.
func TestListCacheKeyedByModuleRoot(t *testing.T) {
	out, err := exec.Command("go", "env", "GOCACHE").Output()
	if err != nil {
		t.Fatalf("go env GOCACHE: %v", err)
	}
	t.Setenv("GOCACHE", strings.TrimSpace(string(out))) // keep the build cache warm
	t.Setenv("XDG_CACHE_HOME", t.TempDir())

	root, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"go.mod":   "module listcache\n\ngo 1.24\n",
		"hot/h.go": "// Package hot spawns on its hot path.\npackage hot\n\n//sched:hotpath\nfunc Spin() {\n\tgo Spin()\n}\n",
	}
	for _, copyName := range []string{"a", "b"} {
		for name, src := range files {
			path := filepath.Join(root, copyName, name)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, copyName := range []string{"a", "b"} {
		dir := filepath.Join(root, copyName)
		pkgs, err := Load(dir, "./...")
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		diags, err := Run(pkgs, []*Analyzer{HotAlloc})
		if err != nil {
			t.Fatal(err)
		}
		if len(pkgs) != 1 || len(diags) != 1 {
			t.Fatalf("copy %s: want 1 package and 1 finding, got %d and %v", copyName, len(pkgs), diags)
		}
		if under := dir + string(filepath.Separator); !strings.HasPrefix(pkgs[0].Dir, under) || !strings.HasPrefix(diags[0].Pos.Filename, under) {
			t.Errorf("copy %s analyzed from another checkout: package dir %s, finding %v", copyName, pkgs[0].Dir, diags[0])
		}
	}
}
