package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMeasureModesRefsTripwire(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(app, mode string) (uint64, error)
		want string
	}{
		{"modes diverge", func(app, mode string) (uint64, error) {
			if mode == "b" {
				return 11, nil
			}
			return 10, nil
		}, "runs diverged"},
		{"repetitions disagree", func() func(app, mode string) (uint64, error) {
			calls := 0
			return func(app, mode string) (uint64, error) {
				if mode == "b" {
					calls++
					return uint64(10 + calls), nil
				}
				return 10, nil
			}
		}(), "nondeterministic"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := measureModes("w", "app", 2, []string{"a", "b"}, tc.run)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}

	rs, err := measureModes("w", "app", 2, []string{"a", "b"}, func(app, mode string) (uint64, error) { return 10, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Mode != "a" || rs[1].Mode != "b" || rs[1].Refs != 10 {
		t.Fatalf("results %+v", rs)
	}
}

// TestEveryFamilyWritesBench runs each table row once on a small budget
// and decodes the file it wrote.
func TestEveryFamilyWritesBench(t *testing.T) {
	const budget = 1_000_000
	for _, f := range families(budget) {
		t.Run(f.name, func(t *testing.T) {
			dir := t.TempDir()
			args := []string{"-family", f.name, "-apps", "mgrid", "-budget", fmt.Sprint(budget), "-reps", "1", "-out", dir}
			if err := run(args, io.Discard); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join(dir, "BENCH_"+f.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var file File
			if err := json.Unmarshal(data, &file); err != nil {
				t.Fatal(err)
			}
			if file.Workload != f.name || file.Budget != budget || !(file.AggregateSpeedup > 0) {
				t.Fatalf("header %q budget %d aggregate %v", file.Workload, file.Budget, file.AggregateSpeedup)
			}
			if len(file.Results) != len(f.modes) {
				t.Fatalf("%d results for %d modes", len(file.Results), len(f.modes))
			}
			for i, r := range file.Results {
				if r.App != "mgrid" || r.Mode != f.modes[i] || r.Refs == 0 || r.Refs != file.Results[0].Refs {
					t.Fatalf("result %d: %+v", i, r)
				}
			}
			if f.check != nil && !(file.Results[len(f.modes)-1].MaxRelErr > 0) {
				t.Fatalf("accuracy check recorded no error: %+v", file.Results)
			}
		})
	}
}

func TestGatesAndFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-family", "table1", "-min-speedup", "1000"}, "below the 1000.00x floor"},
		{[]string{"-family", "intervals", "-max-rel-err", "0.0001"}, "above the 0.00% ceiling"},
		{[]string{"-family", "table1,nosuch"}, `unknown family "nosuch"`},
		{[]string{"-family", "table1", "-apps", "nosuchapp"}, "table1/nosuchapp"},
	} {
		args := append([]string{"-apps", "mgrid", "-budget", "1000000", "-reps", "1", "-out", t.TempDir()}, tc.args...)
		err := run(args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one containing %q", tc.args, err, tc.want)
		}
	}
}
