package experiments

import (
	"testing"
)

// TestTable1ShardedMatchesSequentialTruth extends the engine-equivalence
// contract to the published tables: routing plain ground-truth runs
// through the set-sharded parallel engine (the default) must render the
// same bytes as forcing them onto the sequential engine.
func TestTable1ShardedMatchesSequentialTruth(t *testing.T) {
	apps := []string{"mgrid", "figure2", "compress"}
	const budget = 4_000_000

	sharded, err := Table1(Options{Apps: apps, Budget: budget, Parallel: 1, TruthWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sequential, err := Table1(Options{Apps: apps, Budget: budget, Parallel: 1, SeqTruth: true})
	if err != nil {
		t.Fatal(err)
	}
	st, qt := renderTable1Text(t, sharded), renderTable1Text(t, sequential)
	if st != qt {
		t.Fatalf("rendered Table 1 differs between sharded and sequential ground truth:\n--- sharded ---\n%s\n--- sequential ---\n%s", st, qt)
	}
}

// TestTruthCacheMemoizes verifies the baseline memoization: two
// experiments needing the same plain run within one invocation simulate
// it once, and the shared result renders identically to uncached runs.
func TestTruthCacheMemoizes(t *testing.T) {
	apps := []string{"mgrid", "figure2"}
	const budget = 2_000_000

	tc := NewTruthCache()
	opt := Options{Apps: apps, Budget: budget, Parallel: 1, TruthCache: tc}

	first, err := Table1(opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tc.Len(), len(apps); got != want {
		t.Fatalf("after Table 1: %d cached baselines, want %d", got, want)
	}
	// A second experiment over the same apps must not add entries.
	second, err := Table1(opt)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tc.Len(), len(apps); got != want {
		t.Fatalf("after second run: %d cached baselines, want %d (no new runs)", got, want)
	}

	uncached, err := Table1(Options{Apps: apps, Budget: budget, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	ft, st, ut := renderTable1Text(t, first), renderTable1Text(t, second), renderTable1Text(t, uncached)
	if ft != ut || st != ut {
		t.Fatalf("memoized Table 1 differs from uncached:\n--- cached ---\n%s\n--- uncached ---\n%s", ft, ut)
	}
}
