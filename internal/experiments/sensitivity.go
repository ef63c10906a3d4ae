package experiments

import (
	"fmt"

	"membottle/internal/core"
	"membottle/internal/report"
	"membottle/internal/stats"
)

// The paper's §5: "the algorithms depend on certain arbitrarily chosen
// parameters, such as sampling frequency or the length of a search
// iteration. We plan to investigate how these values could be adjusted
// automatically." This file provides the sensitivity sweeps that motivate
// that plan, plus rows for the automatic variants implemented in core
// (Sampler.TargetOverheadPct and Search.TargetMissesPerInterval).

// SensitivityRow is one parameter setting's accuracy and cost.
type SensitivityRow struct {
	Setting     string
	MeanAbsErr  float64
	MaxAbsErr   float64
	SpearmanRho float64
	SlowdownPct float64
	Iterations  int // search only
	Samples     uint64
	Converged   bool
}

// SearchIntervalSensitivity sweeps the search iteration length on one
// application, ending with the adaptive variant.
func SearchIntervalSensitivity(app string, opt Options) ([]SensitivityRow, error) {
	opt = opt.withDefaults()
	if err := checkApp(app); err != nil {
		return nil, err
	}
	budget := opt.budgetFor(app)
	actual, plain, err := runPlain(opt, app, budget)
	if err != nil {
		return nil, err
	}

	eval := func(setting string, cfg core.SearchConfig) (SensitivityRow, error) {
		s, sys, err := runSearch(opt, app, budget, cfg)
		if err != nil {
			return SensitivityRow{}, err
		}
		row := SensitivityRow{
			Setting:    setting,
			Iterations: s.Iterations(),
			Converged:  s.Converged(),
		}
		var actPcts, estPcts []float64
		for i, r := range actual.Ranked() {
			if i >= 8 {
				break
			}
			actPcts = append(actPcts, r.Pct)
			estPcts = append(estPcts, estPct(s.Estimates(), r.Object.Name))
		}
		row.MeanAbsErr = stats.MeanAbsErr(actPcts, estPcts)
		row.MaxAbsErr = stats.MaxAbsErr(actPcts, estPcts)
		row.SpearmanRho = stats.SpearmanRho(actPcts, estPcts)
		ov := sys.Overhead()
		if plain.TotalCycles > 0 {
			row.SlowdownPct = 100 * (float64(ov.TotalCycles) - float64(plain.TotalCycles)) / float64(plain.TotalCycles)
		}
		return row, nil
	}

	var out []SensitivityRow
	for _, iv := range []uint64{1_000_000, 2_000_000, 4_000_000, 8_000_000, 16_000_000, 32_000_000} {
		row, err := eval(fmt.Sprintf("interval=%dM", iv/1_000_000), core.SearchConfig{N: searchN, Interval: iv})
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	row, err := eval("adaptive (target 50k misses)", core.SearchConfig{
		N: searchN, Interval: 2_000_000, TargetMissesPerInterval: 50_000,
	})
	if err != nil {
		return nil, err
	}
	out = append(out, row)
	return out, nil
}

// SampleIntervalSensitivity sweeps the sampling frequency on one
// application, ending with the overhead-targeted adaptive variant.
func SampleIntervalSensitivity(app string, opt Options) ([]SensitivityRow, error) {
	opt = opt.withDefaults()
	if err := checkApp(app); err != nil {
		return nil, err
	}
	budget := opt.budgetFor(app)
	actual, plain, err := runPlain(opt, app, budget)
	if err != nil {
		return nil, err
	}

	eval := func(setting string, cfg core.SamplerConfig) (SensitivityRow, error) {
		s, sys, err := runSampler(opt, app, budget, cfg)
		if err != nil {
			return SensitivityRow{}, err
		}
		row := SensitivityRow{Setting: setting, Samples: s.Samples()}
		var actPcts, estPcts []float64
		for i, r := range actual.Ranked() {
			if i >= 8 {
				break
			}
			actPcts = append(actPcts, r.Pct)
			estPcts = append(estPcts, estPct(s.Estimates(), r.Object.Name))
		}
		row.MeanAbsErr = stats.MeanAbsErr(actPcts, estPcts)
		row.MaxAbsErr = stats.MaxAbsErr(actPcts, estPcts)
		row.SpearmanRho = stats.SpearmanRho(actPcts, estPcts)
		ov := sys.Overhead()
		if plain.TotalCycles > 0 {
			row.SlowdownPct = 100 * (float64(ov.TotalCycles) - float64(plain.TotalCycles)) / float64(plain.TotalCycles)
		}
		return row, nil
	}

	var out []SensitivityRow
	// Prime intervals isolate frequency effects from resonance.
	for _, iv := range []uint64{100, 1_000, 10_000, 100_000} {
		row, err := eval(fmt.Sprintf("1-in-%d", iv), core.SamplerConfig{Interval: iv, Mode: core.IntervalPrime})
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	row, err := eval("auto (1% overhead target)", core.SamplerConfig{
		Interval: 10_000, Mode: core.IntervalPrime, TargetOverheadPct: 1.0,
	})
	if err != nil {
		return nil, err
	}
	out = append(out, row)
	return out, nil
}

// RenderSensitivity renders a sweep.
func RenderSensitivity(title string, rows []SensitivityRow) *report.Table {
	t := &report.Table{
		Title:   title,
		Headers: []string{"Setting", "Mean |err|", "Max |err|", "Spearman rho", "Slowdown %", "Iterations", "Samples"},
	}
	for _, r := range rows {
		iters, samples := "", ""
		if r.Iterations > 0 {
			iters = fmt.Sprintf("%d", r.Iterations)
		}
		if r.Samples > 0 {
			samples = fmt.Sprintf("%d", r.Samples)
		}
		t.AddRow(r.Setting, report.Pct2(r.MeanAbsErr), report.Pct2(r.MaxAbsErr),
			report.Pct2(r.SpearmanRho), fmt.Sprintf("%.4f", r.SlowdownPct), iters, samples)
	}
	return t
}
