package experiments

import (
	"fmt"
	"strconv"

	"membottle"
	"membottle/internal/interval"
	"membottle/internal/report"
)

// IntervalResult is one application's differential-oracle comparison:
// the representative-interval engine's extrapolated truth tables against
// the exact engine's, as a per-counter relative-error report. The error
// bounds are a first-class output of the interval feature — the report
// states how far the approximation strays, and the per-app bound tests
// in internal/interval assert it stays within documented limits.
type IntervalResult struct {
	App string

	// Err, when non-nil, records that this application's runs failed;
	// the rendered table shows an annotated gap.
	Err error

	// Report compares the interval estimate against exact ground truth.
	Report interval.ErrorReport

	// How much of the reference stream the representatives simulated.
	TotalRefs uint64
	SimRefs   uint64
}

// IntervalErrorsApp builds one application's error-bound report: an
// exact plain run (the differential oracle, shared with the tables
// through the TruthCache and Store) and a representative-interval run
// over the same budget, compared counter by counter. The interval engine
// sizes its intervals adaptively and uses its default cluster count.
func IntervalErrorsApp(app string, opt Options) (IntervalResult, error) {
	opt = opt.withDefaults()
	if err := checkApp(app); err != nil {
		return IntervalResult{}, err
	}
	budget := opt.budgetFor(app)

	oracle, _, err := runPlain(opt, app, budget)
	if err != nil {
		return IntervalResult{}, err
	}

	w, err := membottle.NewWorkload(app)
	if err != nil {
		return IntervalResult{}, err
	}
	res, err := interval.Run(opt.Ctx, w, budget, interval.Config{
		Seed:    opt.Seed,
		Workers: opt.TruthWorkers,
		Obs:     opt.Obs,
	})
	if err != nil {
		return IntervalResult{}, err
	}
	return IntervalResult{
		App:       app,
		Report:    interval.Compare(res.Truth, oracle, 0),
		TotalRefs: res.Plan.TotalRefs,
		SimRefs:   res.SimRefs,
	}, nil
}

// IntervalErrors runs IntervalErrorsApp over all requested applications
// in parallel (see Options.Parallel), preserving application order.
// Failed applications yield an IntervalResult with Err set and
// contribute to the returned joined error.
func IntervalErrors(opt Options) ([]IntervalResult, error) {
	opt = opt.withDefaults()
	results, err := forEachApp(opt, "intervals", opt.Apps, func(app string, attempt int) (IntervalResult, error) {
		o := opt
		o.attempt = attempt
		return IntervalErrorsApp(app, o)
	})
	fillFailedCells(results, opt.Apps, err, func(app string, cellErr error) IntervalResult {
		return IntervalResult{App: app, Err: cellErr}
	})
	return results, err
}

// RenderIntervalErrors renders the per-app error-bound reports as one
// table: a row per significant counter plus each application's total
// row with the sampling diagnostics.
func RenderIntervalErrors(results []IntervalResult) *report.Table {
	t := &report.Table{
		Title:   "Representative-Interval Error Bounds (vs. exact ground truth)",
		Headers: []string{"Application", "Counter", "Actual", "Estimate", "Err %", "Max %", "Mean %", "Sim Refs"},
	}
	for _, r := range results {
		if r.Err != nil {
			t.AddRow(r.App, failedCellNote(r.Err), "", "", "", "", "", "")
			continue
		}
		app := r.App
		for _, row := range r.Report.Rows {
			t.AddRow(app, row.Name,
				strconv.FormatUint(row.Actual, 10),
				strconv.FormatUint(row.Est, 10),
				report.Pct2(row.Rel), "", "", "")
			app = ""
		}
		simPct := 0.0
		if r.TotalRefs > 0 {
			simPct = 100 * float64(r.SimRefs) / float64(r.TotalRefs)
		}
		t.AddRow(app, "(total)",
			strconv.FormatUint(r.Report.TotalActual, 10),
			strconv.FormatUint(r.Report.TotalEst, 10),
			report.Pct2(r.Report.TotalRel),
			report.Pct2(r.Report.MaxRel),
			report.Pct2(r.Report.MeanRel),
			fmt.Sprintf("%s (%.1f%% of %d)", strconv.FormatUint(r.SimRefs, 10), simPct, r.TotalRefs))
	}
	return t
}
