package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoadSkipsNestedModules pins that /... expansion stops at a
// directory holding its own go.mod, as the go tool's ./... does: the
// nested module is a separate build, so its files are neither loaded
// nor checked, while an ordinary subpackage beside it still is.
func TestLoadSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/outer\n\ngo 1.22\n")
	write("outer.go", "package outer\n")
	write("sub/sub.go", "package sub\n")
	write("nested/go.mod", "module example.com/nested\n\ngo 1.22\n")
	// The nested module would fail the outer module's type check, so
	// loading it at all shows up as an error, not just an extra package.
	write("nested/nested.go", "package nested\n\nvar _ = undefinedInOuterModule\n")
	write("nested/deeper/deeper.go", "package deeper\n")

	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(filepath.Join(root, "..."))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.ImportPath)
	}
	want := []string{"example.com/outer", "example.com/outer/sub"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("loaded %v, want %v", got, want)
	}
}
