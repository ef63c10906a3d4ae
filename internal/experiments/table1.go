package experiments

import (
	"errors"
	"sort"

	"membottle"
	"membottle/internal/core"
	"membottle/internal/report"
	"membottle/internal/truth"
)

// Table1Row is one object's line in Table 1: actual vs. sampling vs.
// ten-way search rank and percentage.
type Table1Row struct {
	Object     string
	ActualRank int
	ActualPct  float64
	SampleRank int
	SamplePct  float64
	SearchRank int
	SearchPct  float64
}

// AppResult is one application's Table 1 block plus run diagnostics.
type AppResult struct {
	App  string
	Rows []Table1Row

	// Err, when non-nil, records that this application's runs failed
	// (panic, cancellation, sanitizer violation, or unrecovered injected
	// faults); Rows is empty and the rendered table shows an annotated
	// gap instead of silently omitting the block.
	Err error

	// Diagnostics.
	SampleCount      uint64
	SampleInterval   uint64
	SearchIterations int
	SearchDone       bool
	SearchConverged  bool
	SampleOverhead   membottle.Overhead
	SearchOverhead   membottle.Overhead
	PlainOverhead    membottle.Overhead
}

// Table1App reproduces one application's Table 1 block: an uninstrumented
// ground-truth run, a sampling run, and a ten-way search run over the
// same number of application instructions. With a persistent Store
// attached, a previously completed identical cell is returned from disk
// without simulating anything; a freshly computed cell is persisted for
// the next invocation.
func Table1App(app string, opt Options) (AppResult, error) {
	opt = opt.withDefaults()
	if err := checkApp(app); err != nil {
		return AppResult{}, err
	}
	if res, ok := loadTable1Cell(app, opt); ok {
		return res, nil
	}
	budget := opt.budgetFor(app)

	actual, plainOv, err := runPlain(opt, app, budget)
	if err != nil {
		return AppResult{}, err
	}

	interval := opt.sampleIntervalFor(app)
	sampler, sampleSys, err := runSampler(opt, app, budget, core.SamplerConfig{
		Interval: interval,
		Mode:     core.IntervalFixed,
		Seed:     opt.Seed,
	})
	if err != nil {
		return AppResult{}, err
	}

	search, searchSys, err := runSearch(opt, app, budget, core.SearchConfig{
		N:        searchN,
		Interval: searchInterval,
	})
	if err != nil {
		return AppResult{}, err
	}

	res := AppResult{
		App:              app,
		SampleCount:      sampler.Samples(),
		SampleInterval:   sampler.Interval(),
		SearchIterations: search.Iterations(),
		SearchDone:       search.Done(),
		SearchConverged:  search.Converged(),
		SampleOverhead:   sampleSys.Overhead(),
		SearchOverhead:   searchSys.Overhead(),
		PlainOverhead:    plainOv,
	}
	res.Rows = buildRows(actual, sampler.Estimates(), search.Estimates(), 8)
	saveTable1Cell(app, opt, res)
	return res, nil
}

// Table1 runs Table1App over all requested applications, in parallel
// (see Options.Parallel); results keep the paper's application order.
// Failed applications yield an AppResult with Err set (rendered as an
// annotated gap) and contribute to the returned joined error; healthy
// applications are unaffected.
func Table1(opt Options) ([]AppResult, error) {
	opt = opt.withDefaults()
	results, err := forEachApp(opt, "table1", opt.Apps, func(app string, attempt int) (AppResult, error) {
		o := opt
		o.attempt = attempt
		return Table1App(app, o)
	})
	fillFailedCells(results, opt.Apps, err, func(app string, cellErr error) AppResult {
		return AppResult{App: app, Err: cellErr}
	})
	return results, err
}

// fillFailedCells replaces the zero-valued result of every failed cell
// with a stub built from its CellError, so renderers can show annotated
// gaps in the application's table position.
func fillFailedCells[T any](results []T, apps []string, err error, stub func(app string, cellErr error) T) {
	for _, ce := range CellErrors(err) {
		for i, app := range apps {
			if app == ce.App {
				results[i] = stub(app, ce)
			}
		}
	}
}

// buildRows merges ground truth with up to two techniques' estimates,
// keeping objects in the top maxRows of the actual ranking or reported by
// a technique, ordered by actual misses (the paper's presentation).
func buildRows(actual *truth.Counter, a, b []core.Estimate, maxRows int) []Table1Row {
	ranked := actual.Ranked()
	include := map[string]bool{}
	for i, r := range ranked {
		if i < maxRows && r.Pct >= core.MinReportPct {
			include[r.Object.Name] = true
		}
	}
	for _, e := range a {
		include[e.Object.Name] = true
	}
	for _, e := range b {
		include[e.Object.Name] = true
	}

	var rows []Table1Row
	for i, r := range ranked {
		name := r.Object.Name
		if !include[name] {
			continue
		}
		rows = append(rows, Table1Row{
			Object:     name,
			ActualRank: i + 1,
			ActualPct:  r.Pct,
			SampleRank: estRank(a, name),
			SamplePct:  estPct(a, name),
			SearchRank: estRank(b, name),
			SearchPct:  estPct(b, name),
		})
	}
	// Cap at a table-friendly size, keeping the top-actual rows.
	if len(rows) > maxRows+4 {
		rows = rows[:maxRows+4]
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].ActualRank < rows[j].ActualRank })
	return rows
}

// failedCellNote is the annotation rendered in place of a failed
// application's rows: the underlying cause, truncated to table width.
func failedCellNote(err error) string {
	msg := err.Error()
	var ce *CellError
	if errors.As(err, &ce) {
		msg = ce.Err.Error()
	}
	if len(msg) > 64 {
		msg = msg[:61] + "..."
	}
	return "(failed: " + msg + ")"
}

// RenderTable1 renders results in the paper's Table 1 layout.
func RenderTable1(results []AppResult) *report.Table {
	t := &report.Table{
		Title:   "Table 1: Results for Sampling and Search",
		Headers: []string{"Application", "Variable/Memory Block", "Actual Rank", "Actual %", "Sample Rank", "Sample %", "Search Rank", "Search %"},
	}
	for _, r := range results {
		if r.Err != nil {
			t.AddRow(r.App, failedCellNote(r.Err), "", "", "", "", "", "")
			continue
		}
		for i, row := range r.Rows {
			app := ""
			if i == 0 {
				app = r.App
			}
			samRank, samPct, seaRank, seaPct := "", "", "", ""
			if row.SampleRank != 0 {
				samRank, samPct = report.Rank(row.SampleRank), report.Pct(row.SamplePct)
			}
			if row.SearchRank != 0 {
				seaRank, seaPct = report.Rank(row.SearchRank), report.Pct(row.SearchPct)
			}
			t.AddRow(app, row.Object,
				report.Rank(row.ActualRank), report.Pct(row.ActualPct),
				samRank, samPct, seaRank, seaPct)
		}
	}
	return t
}
