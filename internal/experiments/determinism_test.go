package experiments

import (
	"strings"
	"testing"

	"membottle/internal/obs"
	"membottle/internal/store"
)

// renderTable1Text renders a Table 1 result to its final text form; the
// determinism tests compare these byte for byte.
func renderTable1Text(t *testing.T, results []AppResult) string {
	t.Helper()
	var sb strings.Builder
	if err := RenderTable1(results).Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestTable1DeterministicAcrossParallelism runs Table 1 serially and with
// eight workers and requires the rendered output — the actual bytes a user
// sees — to be identical. Run under -race in CI, this doubles as the
// scheduler-interleaving check for the parallel experiment driver.
func TestTable1DeterministicAcrossParallelism(t *testing.T) {
	apps := []string{"mgrid", "figure2", "compress"}
	const budget = 4_000_000

	serial, err := Table1(Options{Apps: apps, Budget: budget, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Table1(Options{Apps: apps, Budget: budget, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}

	st, pt := renderTable1Text(t, serial), renderTable1Text(t, parallel)
	if st != pt {
		t.Fatalf("rendered Table 1 differs between serial and 8-way parallel runs:\n--- serial ---\n%s\n--- parallel ---\n%s", st, pt)
	}
}

// TestTable1ScalarMatchesBatched is the engine's headline invariant at the
// experiment level: the batched hot path and the scalar reference loop must
// produce byte-identical published tables, not merely similar statistics.
func TestTable1ScalarMatchesBatched(t *testing.T) {
	apps := []string{"mgrid", "figure2", "compress"}
	const budget = 4_000_000

	batched, err := Table1(Options{Apps: apps, Budget: budget, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := Table1(Options{Apps: apps, Budget: budget, Parallel: 1, Scalar: true})
	if err != nil {
		t.Fatal(err)
	}

	bt, st := renderTable1Text(t, batched), renderTable1Text(t, scalar)
	if bt != st {
		t.Fatalf("rendered Table 1 differs between batched and scalar engines:\n--- batched ---\n%s\n--- scalar ---\n%s", bt, st)
	}
	// Diagnostics outside the rendered table must agree too.
	for i := range batched {
		if batched[i].SampleCount != scalar[i].SampleCount ||
			batched[i].SearchIterations != scalar[i].SearchIterations ||
			batched[i].SearchDone != scalar[i].SearchDone {
			t.Fatalf("%s diagnostics diverge:\nbatched: %+v\nscalar:  %+v",
				batched[i].App, batched[i], scalar[i])
		}
	}
}

// TestTable1DeterministicAcrossStoreStates is the persistent store's
// determinism guard: the rendered Table 1 must be byte-identical with
// the store off, with a cold (empty) store being populated, and with a
// warm store serving every cell from disk — the store may change where
// results come from, never what they are.
func TestTable1DeterministicAcrossStoreStates(t *testing.T) {
	apps := []string{"mgrid", "figure2", "compress"}
	const budget = 4_000_000
	dir := t.TempDir()

	off, err := Table1(Options{Apps: apps, Budget: budget, Parallel: 1,
		TruthCache: NewTruthCache()})
	if err != nil {
		t.Fatal(err)
	}

	coldStore, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Table1(Options{Apps: apps, Budget: budget, Parallel: 1,
		TruthCache: NewTruthCache(), Store: coldStore})
	if err != nil {
		t.Fatal(err)
	}

	// Warm run: fresh in-memory state, fresh store handle over the same
	// directory (a second invocation), with an obs bundle proving nothing
	// was recomputed.
	o := obs.New(obs.Options{NoTrace: true})
	warmStore, err := store.Open(dir, store.Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Table1(Options{Apps: apps, Budget: budget, Parallel: 1,
		TruthCache: NewTruthCache(), Store: warmStore, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if n := o.StoreMisses.Value(); n != 0 {
		t.Errorf("warm run recorded %d store misses, want 0", n)
	}
	if n := o.Runs.Value(); n != 0 {
		t.Errorf("warm run performed %d simulation runs, want 0", n)
	}

	offT, coldT, warmT := renderTable1Text(t, off), renderTable1Text(t, cold), renderTable1Text(t, warm)
	if offT != coldT {
		t.Fatalf("rendered Table 1 differs between store-off and store-cold:\n--- off ---\n%s\n--- cold ---\n%s", offT, coldT)
	}
	if offT != warmT {
		t.Fatalf("rendered Table 1 differs between store-off and store-warm:\n--- off ---\n%s\n--- warm ---\n%s", offT, warmT)
	}
}
