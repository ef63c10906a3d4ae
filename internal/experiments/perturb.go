package experiments

import (
	"fmt"

	"membottle"
	"membottle/internal/core"
	"membottle/internal/report"
)

// sampleFrequencies are the paper's Figure 3/4 sampling configurations:
// one sample per 1,000 / 10,000 / 100,000 / 1,000,000 cache misses.
var sampleFrequencies = []uint64{1_000, 10_000, 100_000, 1_000_000}

// PerturbRow is one (application, instrumentation configuration) cell of
// Figures 3 and 4, plus the §3.3 interrupt-rate diagnostics.
type PerturbRow struct {
	App    string
	Config string // "search" or "sample(<interval>)"

	// Figure 3: percentage increase in total cache misses versus the
	// uninstrumented run at equal application instructions.
	MissIncreasePct float64
	// Figure 4: percent slowdown in virtual cycles.
	SlowdownPct float64

	// §3.3 diagnostics.
	Interrupts         uint64
	InterruptsPerBCyc  float64
	CyclesPerInterrupt float64

	// Raw counters for EXPERIMENTS.md bookkeeping.
	PlainMisses, InstrMisses uint64
	PlainCycles, InstrCycles uint64
}

// Perturbation reproduces Figures 3 and 4: for every application, run
// uninstrumented, with sampling at each of the paper's four frequencies,
// and with the n-way search, all for the same number of application
// instructions, then compare total cache misses (Figure 3) and virtual
// cycles (Figure 4).
// Failed applications are reported through the joined error while the
// surviving applications' rows are still returned.
func Perturbation(opt Options) ([]PerturbRow, error) {
	opt = opt.withDefaults()
	perApp, err := forEachApp(opt, "perturbation", opt.Apps, func(app string, attempt int) ([]PerturbRow, error) {
		o := opt
		o.attempt = attempt
		return PerturbationApp(app, o)
	})
	var out []PerturbRow
	for _, rows := range perApp {
		out = append(out, rows...)
	}
	return out, err
}

// PerturbationApp runs the Figure 3/4 sweep for one application.
func PerturbationApp(app string, opt Options) ([]PerturbRow, error) {
	opt = opt.withDefaults()
	if err := checkApp(app); err != nil {
		return nil, err
	}
	budget := opt.budgetFor(app)

	_, plain, err := runPlain(opt, app, budget)
	if err != nil {
		return nil, err
	}

	mkRow := func(config string, ov membottle.Overhead) PerturbRow {
		row := PerturbRow{
			App:         app,
			Config:      config,
			Interrupts:  ov.Interrupts,
			PlainMisses: plain.TotalMisses,
			InstrMisses: ov.TotalMisses,
			PlainCycles: plain.TotalCycles,
			InstrCycles: ov.TotalCycles,
		}
		if plain.TotalMisses > 0 {
			row.MissIncreasePct = 100 * (float64(ov.TotalMisses) - float64(plain.TotalMisses)) / float64(plain.TotalMisses)
		}
		if plain.TotalCycles > 0 {
			row.SlowdownPct = 100 * (float64(ov.TotalCycles) - float64(plain.TotalCycles)) / float64(plain.TotalCycles)
		}
		row.InterruptsPerBCyc = ov.InterruptsPerBillionCycles()
		if ov.Interrupts > 0 {
			row.CyclesPerInterrupt = float64(ov.HandlerCycles) / float64(ov.Interrupts)
		}
		return row
	}

	var out []PerturbRow

	search, searchSys, err := runSearch(opt, app, budget, core.SearchConfig{N: searchN, Interval: searchInterval})
	if err != nil {
		return nil, err
	}
	_ = search
	out = append(out, mkRow("search", searchSys.Overhead()))

	for _, freq := range sampleFrequencies {
		_, sys, err := runSampler(opt, app, budget, core.SamplerConfig{Interval: freq, Seed: opt.Seed})
		if err != nil {
			return nil, err
		}
		out = append(out, mkRow(fmt.Sprintf("sample(%d)", freq), sys.Overhead()))
	}
	return out, nil
}

// RenderFigure3 renders the miss-increase data (log-scale in the paper).
func RenderFigure3(rows []PerturbRow) *report.Table {
	t := &report.Table{
		Title:   "Figure 3: Increase in Cache Misses Due to Instrumentation (%)",
		Headers: []string{"Application", "Config", "Miss Increase %", "Plain Misses", "Instrumented Misses"},
	}
	for _, r := range rows {
		t.AddRow(r.App, r.Config, fmt.Sprintf("%.4f", r.MissIncreasePct),
			fmt.Sprintf("%d", r.PlainMisses), fmt.Sprintf("%d", r.InstrMisses))
	}
	return t
}

// RenderFigure4 renders the slowdown data (log-scale in the paper),
// including the §3.3 interrupt-rate diagnostics.
func RenderFigure4(rows []PerturbRow) *report.Table {
	t := &report.Table{
		Title:   "Figure 4: Instrumentation Cost (% slowdown)",
		Headers: []string{"Application", "Config", "Slowdown %", "Interrupts", "Interrupts/1e9 cyc", "Handler cyc/interrupt"},
	}
	for _, r := range rows {
		t.AddRow(r.App, r.Config, fmt.Sprintf("%.4f", r.SlowdownPct),
			fmt.Sprintf("%d", r.Interrupts),
			fmt.Sprintf("%.1f", r.InterruptsPerBCyc),
			fmt.Sprintf("%.0f", r.CyclesPerInterrupt))
	}
	return t
}
