package experiments

import (
	"sync"

	"membottle"
	"membottle/internal/truth"
)

// TruthCache memoizes uninstrumented ground-truth baseline runs within
// one experiments invocation. Table 1, Table 2, Figure 2, the ablations,
// the sensitivity sweeps and the interval error report all begin from
// the same plain run of each application; with a shared TruthCache on
// the Options each (app, budget) baseline is simulated exactly once and
// the result — deterministic, and read-only to every consumer — is
// shared.
//
// Entries are keyed by what a caller can vary about a plain run: the
// application and the budget. Everything else that shapes it (the cache
// geometry, the cost model) is a program constant. Exact engine
// selection (scalar, sequential, sharded, worker count) is deliberately
// excluded: those engines produce byte-identical results by contract,
// enforced by the differential tests. Only exact engines serve plain
// runs; the approximate interval engine never does. Failed runs are not
// cached, so cancellation or retry semantics are unchanged.
type TruthCache struct {
	mu sync.Mutex
	m  map[truthKey]*truthEntry
}

// NewTruthCache returns an empty cache, ready to share via
// Options.TruthCache.
func NewTruthCache() *TruthCache {
	return &TruthCache{m: make(map[truthKey]*truthEntry)}
}

type truthKey struct {
	app    string
	budget uint64
}

type truthEntry struct {
	mu    sync.Mutex
	done  bool
	truth *truth.Counter
	ov    membottle.Overhead
}

// get returns the memoized baseline for (app, budget), running it on
// first use. Concurrent requests for the same key run once: the entry
// lock doubles as single-flight, so parallel experiment cells needing
// the same baseline wait for the first simulation instead of repeating
// it — and, with a persistent Store attached, the first flight consults
// the disk tier before computing, so warm invocations pay one read.
func (tc *TruthCache) get(opt Options, app string, budget uint64) (*truth.Counter, membottle.Overhead, error) {
	key := truthKey{app: app, budget: budget}
	tc.mu.Lock()
	e := tc.m[key]
	if e == nil {
		e = &truthEntry{}
		tc.m[key] = e
	}
	tc.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		return e.truth, e.ov, nil
	}
	t, ov, err := runPlainStored(opt, app, budget)
	if err != nil {
		return nil, membottle.Overhead{}, err
	}
	e.truth, e.ov, e.done = t, ov, true
	return t, ov, nil
}

// Len reports how many distinct baselines have been computed (for tests
// and diagnostics).
func (tc *TruthCache) Len() int {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	n := 0
	for _, e := range tc.m {
		e.mu.Lock()
		if e.done {
			n++
		}
		e.mu.Unlock()
	}
	return n
}
