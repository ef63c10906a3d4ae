package experiments

import (
	"sync"
	"testing"

	"membottle"
	"membottle/internal/obs"
	"membottle/internal/store"
)

// TestTruthRecordRoundTrip pins the truth-baseline codec: a counter from
// a real plain run must decode to one that is indistinguishable on every
// reporting path runPlain's consumers use (Ranked, Misses, Pct, totals),
// with the overhead preserved exactly.
func TestTruthRecordRoundTrip(t *testing.T) {
	orig, ov, err := runPlainUncached(Options{}.withDefaults(), "mgrid", 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := encodeTruthRecord(orig, ov)
	if err != nil {
		t.Fatal(err)
	}
	got, gotOv, err := decodeTruthRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if gotOv != ov {
		t.Fatalf("overhead = %+v, want %+v", gotOv, ov)
	}
	if got.Total != orig.Total || got.Unmatched != orig.Unmatched {
		t.Fatalf("totals = (%d,%d), want (%d,%d)", got.Total, got.Unmatched, orig.Total, orig.Unmatched)
	}
	or, gr := orig.Ranked(), got.Ranked()
	if len(or) != len(gr) {
		t.Fatalf("ranked lengths differ: %d vs %d", len(gr), len(or))
	}
	for i := range or {
		if or[i].Object.Name != gr[i].Object.Name ||
			or[i].Object.Kind != gr[i].Object.Kind ||
			or[i].Misses != gr[i].Misses || or[i].Pct != gr[i].Pct {
			t.Fatalf("ranked[%d] = %+v/%+v, want %+v/%+v",
				i, gr[i].Object, gr[i], or[i].Object, or[i])
		}
		if got.Misses(or[i].Object.Name) != or[i].Misses {
			t.Fatalf("Misses(%q) = %d, want %d",
				or[i].Object.Name, got.Misses(or[i].Object.Name), or[i].Misses)
		}
	}
}

func TestTruthRecordRejectsCorruptPayload(t *testing.T) {
	orig, ov, err := runPlainUncached(Options{}.withDefaults(), "mgrid", 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := encodeTruthRecord(orig, ov)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeTruthRecord(payload[:len(payload)/2]); err == nil {
		t.Fatal("truncated truth record decoded without error")
	}
	if _, _, err := decodeTruthRecord(append(payload, 0)); err == nil {
		t.Fatal("truth record with trailing bytes decoded without error")
	}
}

// TestStoreSingleFlightConcurrent (run under -race in CI) hammers one
// TruthCache backed by one shared store from many goroutines: the
// baseline must be computed exactly once, every caller must observe the
// identical result, and the store must end up with exactly one truth
// entry.
func TestStoreSingleFlightConcurrent(t *testing.T) {
	o := obs.New(obs.Options{NoTrace: true})
	st, err := store.Open(t.TempDir(), store.Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	tc := NewTruthCache()
	opt := Options{TruthCache: tc, Store: st, Obs: o}.withDefaults()
	const (
		workers = 8
		budget  = 1_000_000
	)
	totals := make([]uint64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr, _, err := runPlain(opt, "mgrid", budget)
			if err != nil {
				errs[w] = err
				return
			}
			totals[w] = tr.Total
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for w := 1; w < workers; w++ {
		if totals[w] != totals[0] {
			t.Fatalf("worker %d saw %d total misses, worker 0 saw %d", w, totals[w], totals[0])
		}
	}
	if tc.Len() != 1 {
		t.Fatalf("TruthCache entries = %d, want 1", tc.Len())
	}
	if n, err := st.Len(); err != nil || n != 1 {
		t.Fatalf("store entries = %d, %v; want 1", n, err)
	}
	if n := o.StoreMisses.Value(); n != 1 {
		t.Fatalf("store.misses = %d, want exactly 1 (single flight)", n)
	}
}

// TestRunPlainStoredCrossInvocation models two CLI invocations sharing a
// store directory: the second must be served from disk without
// simulating, and its counter must report identically to the first's.
func TestRunPlainStoredCrossInvocation(t *testing.T) {
	dir := t.TempDir()
	const budget = 1_500_000

	s1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	first, ov1, err := runPlain(Options{Store: s1}.withDefaults(), "compress", budget)
	if err != nil {
		t.Fatal(err)
	}

	o := obs.New(obs.Options{NoTrace: true})
	s2, err := store.Open(dir, store.Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	second, ov2, err := runPlain(Options{Store: s2, Obs: o}.withDefaults(), "compress", budget)
	if err != nil {
		t.Fatal(err)
	}
	if n := o.StoreHits.Value(); n != 1 {
		t.Fatalf("store.hits = %d, want 1", n)
	}
	if n := o.Runs.Value(); n != 0 {
		t.Fatalf("second invocation performed %d simulation runs, want 0", n)
	}
	if ov1 != ov2 {
		t.Fatalf("overheads differ: %+v vs %+v", ov1, ov2)
	}
	fr, sr := first.Ranked(), second.Ranked()
	if len(fr) != len(sr) {
		t.Fatalf("ranked lengths differ: %d vs %d", len(fr), len(sr))
	}
	for i := range fr {
		if fr[i].Object.Name != sr[i].Object.Name || fr[i].Misses != sr[i].Misses {
			t.Fatalf("ranked[%d]: %s/%d vs %s/%d",
				i, fr[i].Object.Name, fr[i].Misses, sr[i].Object.Name, sr[i].Misses)
		}
	}
}

// TestCellRecordRoundTripTable2 exercises the Table 2 cell codec through
// the public entry point: a cold Table2App persists its cell, and a warm
// call must return an identical result without simulating.
func TestCellRecordRoundTripTable2(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Store: st, Budget: 2_000_000}
	cold, err := Table2App("mgrid", opt)
	if err != nil {
		t.Fatal(err)
	}

	o := obs.New(obs.Options{NoTrace: true})
	st2, err := store.Open(st.Dir(), store.Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	warmOpt := Options{Store: st2, Budget: 2_000_000, Obs: o}
	warm, err := Table2App("mgrid", warmOpt)
	if err != nil {
		t.Fatal(err)
	}
	if n := o.Runs.Value(); n != 0 {
		t.Fatalf("warm Table2App performed %d simulation runs, want 0", n)
	}
	if len(cold.Rows) == 0 {
		t.Fatal("cold Table2App produced no rows; the round trip proves nothing")
	}
	if len(warm.Rows) != len(cold.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(warm.Rows), len(cold.Rows))
	}
	for i := range cold.Rows {
		if warm.Rows[i] != cold.Rows[i] {
			t.Fatalf("row %d differs:\ncold: %+v\nwarm: %+v", i, cold.Rows[i], warm.Rows[i])
		}
	}
	if warm.TwoWayIterations != cold.TwoWayIterations || warm.TenWayIterations != cold.TenWayIterations ||
		warm.TwoWayDone != cold.TwoWayDone || warm.TenWayDone != cold.TenWayDone ||
		warm.TwoWayFoundTop != cold.TwoWayFoundTop || warm.TenWayFoundTop != cold.TenWayFoundTop {
		t.Fatalf("diagnostics differ:\ncold: %+v\nwarm: %+v", cold, warm)
	}
}

// TestFaultsBypassStore pins the safety rule: with fault injection
// enabled nothing is read from or written to the store.
func TestFaultsBypassStore(t *testing.T) {
	o := obs.New(obs.Options{NoTrace: true})
	st, err := store.Open(t.TempDir(), store.Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := membottle.ParseFaults("drop-miss=0.5,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Store: st, Faults: fc}.withDefaults()
	if _, _, err := runPlain(opt, "mgrid", 1_000_000); err != nil {
		t.Fatal(err)
	}
	if n, err := st.Len(); err != nil || n != 0 {
		t.Fatalf("fault-injected run persisted %d entries (%v), want 0", n, err)
	}
	if n := o.StoreHits.Value() + o.StoreMisses.Value(); n != 0 {
		t.Fatalf("fault-injected run touched the store %d times, want 0", n)
	}
}
