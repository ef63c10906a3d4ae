package experiments

import "testing"

// TestIntervalReportSharesExactBaseline checks that the interval error
// report compares against the same exact baseline Table 1 reads: with one
// TruthCache, Table 1 and the report simulate the plain run once, and
// the report's reference count and every "Actual" figure equal an
// independent sequential run's.
func TestIntervalReportSharesExactBaseline(t *testing.T) {
	const app, budget = "mgrid", 4_000_000
	opt := Options{Budget: budget, TruthCache: NewTruthCache()}
	if _, err := Table1App(app, opt); err != nil {
		t.Fatal(err)
	}
	res, err := IntervalErrorsApp(app, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := opt.TruthCache.Len(); n != 1 {
		t.Fatalf("TruthCache holds %d baselines, want 1 shared by Table 1 and the report", n)
	}

	seq := newSystem(opt, true)
	if err := seq.LoadWorkloadByName(app); err != nil {
		t.Fatal(err)
	}
	seq.Run(budget)
	if got, want := res.TotalRefs, seq.Machine.Cache.Stats.Accesses(); got != want {
		t.Errorf("report covers %d references, exact run made %d", got, want)
	}
	if got, want := res.Report.TotalActual, seq.Truth.Total; got != want {
		t.Errorf("report total actual %d, exact run %d", got, want)
	}
	if len(res.Report.Rows) == 0 {
		t.Fatal("report has no rows")
	}
	for _, row := range res.Report.Rows {
		if want := seq.Truth.Misses(row.Name); row.Actual != want {
			t.Errorf("%s: report actual %d, exact run %d", row.Name, row.Actual, want)
		}
	}
}
