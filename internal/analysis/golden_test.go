package analysis

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// TestGoldenFindings pins the exact finding set for each deliberately
// broken fixture package under testdata/src. Run with -update after an
// intentional rule change.
func TestGoldenFindings(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "src", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) == 0 {
		t.Fatal("no fixture packages under testdata/src")
	}
	for _, dir := range fixtures {
		name := filepath.Base(dir)
		t.Run(name, func(t *testing.T) {
			got := renderFindings(t, dir)
			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings diverge from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// renderFindings loads one fixture directory, runs the full analysis,
// and renders the findings with paths relative to the fixture dir, so
// golden files are stable across checkouts.
func renderFindings(t *testing.T, dir string) string {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(abs)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(abs)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	var b strings.Builder
	for _, f := range AnalyzeAll(pkgs) {
		if rel, err := filepath.Rel(abs, f.File); err == nil {
			f.File = filepath.ToSlash(rel)
		}
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestFixturesCoverAllRuleFamilies guards against a fixture rotting
// into silence: every rule family must fire somewhere under testdata.
func TestFixturesCoverAllRuleFamilies(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "src", "*"))
	if err != nil {
		t.Fatal(err)
	}
	fired := map[string]bool{}
	for _, dir := range fixtures {
		for _, line := range strings.Split(renderFindings(t, dir), "\n") {
			parts := strings.SplitN(line, ": ", 3)
			if len(parts) == 3 {
				fired[parts[1]] = true
			}
		}
	}
	for _, r := range Rules {
		if !fired[r.ID] {
			t.Errorf("rule %s never fires in any testdata fixture", r.ID)
		}
	}
}
