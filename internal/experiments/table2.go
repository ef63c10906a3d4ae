package experiments

import (
	"sort"

	"membottle/internal/core"
	"membottle/internal/report"
	"membottle/internal/truth"
)

// Table2Row is one object's line in Table 2: actual vs. 2-way vs. 10-way
// search.
type Table2Row struct {
	Object     string
	ActualRank int
	ActualPct  float64
	TwoWayRank int
	TwoWayPct  float64
	TenWayRank int
	TenWayPct  float64
}

// Table2App compares a two-way and a ten-way search on one application.
type Table2AppResult struct {
	App  string
	Rows []Table2Row
	// Err, when non-nil, marks the whole application block as failed;
	// the rendered table shows an annotated gap.
	Err              error
	TwoWayIterations int
	TenWayIterations int
	TwoWayDone       bool
	TenWayDone       bool
	TwoWayFoundTop   bool // did the 2-way search find the actual #1 object?
	TenWayFoundTop   bool
}

// Table2App reproduces one application's Table 2 block. With a
// persistent Store attached, a previously completed identical cell is
// returned from disk; a freshly computed cell is persisted.
func Table2App(app string, opt Options) (Table2AppResult, error) {
	opt = opt.withDefaults()
	if err := checkApp(app); err != nil {
		return Table2AppResult{}, err
	}
	if res, ok := loadTable2Cell(app, opt); ok {
		return res, nil
	}
	budget := opt.budgetFor(app)

	actual, _, err := runPlain(opt, app, budget)
	if err != nil {
		return Table2AppResult{}, err
	}
	two, _, err := runSearch(opt, app, budget, core.SearchConfig{N: 2, Interval: searchInterval})
	if err != nil {
		return Table2AppResult{}, err
	}
	ten, _, err := runSearch(opt, app, budget, core.SearchConfig{N: searchN, Interval: searchInterval})
	if err != nil {
		return Table2AppResult{}, err
	}

	res := Table2AppResult{
		App:              app,
		TwoWayIterations: two.Iterations(),
		TenWayIterations: ten.Iterations(),
		TwoWayDone:       two.Done(),
		TenWayDone:       ten.Done(),
	}
	res.Rows = buildTable2Rows(actual, two.Estimates(), ten.Estimates(), 8)
	if top := topActual(actual); top != "" {
		res.TwoWayFoundTop = estRank(two.Estimates(), top) != 0
		res.TenWayFoundTop = estRank(ten.Estimates(), top) != 0
	}
	saveTable2Cell(app, opt, res)
	return res, nil
}

// Table2 runs Table2App over all requested applications, in parallel;
// results keep the paper's application order.
func Table2(opt Options) ([]Table2AppResult, error) {
	opt = opt.withDefaults()
	results, err := forEachApp(opt, "table2", opt.Apps, func(app string, attempt int) (Table2AppResult, error) {
		o := opt
		o.attempt = attempt
		return Table2App(app, o)
	})
	fillFailedCells(results, opt.Apps, err, func(app string, cellErr error) Table2AppResult {
		return Table2AppResult{App: app, Err: cellErr}
	})
	return results, err
}

func topActual(c *truth.Counter) string {
	ranked := c.Ranked()
	if len(ranked) == 0 {
		return ""
	}
	return ranked[0].Object.Name
}

func buildTable2Rows(actual *truth.Counter, two, ten []core.Estimate, maxRows int) []Table2Row {
	ranked := actual.Ranked()
	include := map[string]bool{}
	for i, r := range ranked {
		if i < maxRows && r.Pct >= core.MinReportPct {
			include[r.Object.Name] = true
		}
	}
	for _, e := range two {
		include[e.Object.Name] = true
	}
	for _, e := range ten {
		include[e.Object.Name] = true
	}
	var rows []Table2Row
	for i, r := range ranked {
		name := r.Object.Name
		if !include[name] {
			continue
		}
		rows = append(rows, Table2Row{
			Object:     name,
			ActualRank: i + 1,
			ActualPct:  r.Pct,
			TwoWayRank: estRank(two, name),
			TwoWayPct:  estPct(two, name),
			TenWayRank: estRank(ten, name),
			TenWayPct:  estPct(ten, name),
		})
	}
	if len(rows) > maxRows+4 {
		rows = rows[:maxRows+4]
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].ActualRank < rows[j].ActualRank })
	return rows
}

// RenderTable2 renders results in the paper's Table 2 layout.
func RenderTable2(results []Table2AppResult) *report.Table {
	t := &report.Table{
		Title:   "Table 2: Results of Two-Way Versus Ten-Way Search",
		Headers: []string{"Application", "Variable/Memory Block", "Actual Rank", "Actual %", "2-Way Rank", "2-Way %", "10-Way Rank", "10-Way %"},
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
			twoRank, twoPct, tenRank, tenPct := "", "", "", ""
			if row.TwoWayRank != 0 {
				twoRank, twoPct = report.Rank(row.TwoWayRank), report.Pct(row.TwoWayPct)
			}
			if row.TenWayRank != 0 {
				tenRank, tenPct = report.Rank(row.TenWayRank), report.Pct(row.TenWayPct)
			}
			t.AddRow(app, row.Object,
				report.Rank(row.ActualRank), report.Pct(row.ActualPct),
				twoRank, twoPct, tenRank, tenPct)
		}
	}
	return t
}
