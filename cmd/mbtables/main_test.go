package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"membottle/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/paper/table1.golden from current output")

// table1Golden is the output of `mbtables -table 1` at default budgets.
var table1Golden = filepath.Join("..", "..", "testdata", "paper", "table1.golden")

// TestTable1Golden pins Table 1 as the CLI prints it, rendered twice:
// once with plain runs on the captured engine (the default) and once on
// the sequential engine (SeqTruth). Both must match the golden byte for
// byte, so a change to either exact engine that moves a number fails
// here. -update rewrites the golden from the captured engine's render.
func TestTable1Golden(t *testing.T) {
	render := func(seq bool) []byte {
		t.Helper()
		rs, err := experiments.Table1(experiments.Options{SeqTruth: seq, TruthCache: experiments.NewTruthCache()})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := writeTable1(&b, rs, false); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}

	captured := render(false)
	if *update {
		if err := os.MkdirAll(filepath.Dir(table1Golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(table1Golden, captured, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(table1Golden)
	if err != nil {
		t.Fatalf("missing golden (run `go test ./cmd/mbtables -update` to create): %v", err)
	}
	for _, tc := range []struct {
		engine string
		got    []byte
	}{
		{"captured", captured},
		{"sequential", render(true)},
	} {
		if !bytes.Equal(tc.got, want) {
			t.Errorf("Table 1 with the %s engine differs from %s\n--- got ---\n%s\n--- want ---\n%s",
				tc.engine, table1Golden, tc.got, want)
		}
	}
}
