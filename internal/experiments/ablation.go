package experiments

import (
	"membottle"
	"membottle/internal/core"
	"membottle/internal/report"
	"membottle/internal/stats"
)

// AccuracySummary condenses a search run against ground truth.
type AccuracySummary struct {
	Variant string
	// Found is the technique's reported objects, best first.
	Found []string
	// TopCorrect: the technique's #1 matches the actual #1.
	TopCorrect bool
	// MaxAbsErr / MeanAbsErr between estimated and actual percentages
	// over the actual top-8 objects.
	MaxAbsErr  float64
	MeanAbsErr float64
	// SpearmanRho between estimated and actual percentages over the
	// actual top-8 objects (1.0 = perfect ranking).
	SpearmanRho float64
	Iterations  int
	Done        bool
}

func summarize(variant, app string, est []core.Estimate, iters int, done bool, opt Options) (AccuracySummary, error) {
	actual, _, err := runPlain(opt, app, opt.budgetFor(app))
	if err != nil {
		return AccuracySummary{}, err
	}
	s := AccuracySummary{Variant: variant, Iterations: iters, Done: done}
	for _, e := range est {
		s.Found = append(s.Found, e.Object.Name)
	}
	ranked := actual.Ranked()
	if len(ranked) > 0 && len(est) > 0 {
		s.TopCorrect = ranked[0].Object.Name == est[0].Object.Name
	}
	var actPcts, estPcts []float64
	for i, r := range ranked {
		if i >= 8 {
			break
		}
		actPcts = append(actPcts, r.Pct)
		estPcts = append(estPcts, estPct(est, r.Object.Name))
	}
	s.MaxAbsErr = stats.MaxAbsErr(actPcts, estPcts)
	s.MeanAbsErr = stats.MeanAbsErr(actPcts, estPcts)
	s.SpearmanRho = stats.SpearmanRho(actPcts, estPcts)
	return s, nil
}

// AblationAlignment compares object-aligned region splitting against the
// naive midpoint splitting the paper warns about ("an array causing many
// cache misses that spans a region boundary may not cause enough cache
// misses in any single region to attract the search to it").
func AblationAlignment(app string, opt Options) (aligned, naive AccuracySummary, err error) {
	opt = opt.withDefaults()
	budget := opt.budgetFor(app)

	a, _, err := runSearch(opt, app, budget, core.SearchConfig{N: searchN, Interval: searchInterval})
	if err != nil {
		return
	}
	if aligned, err = summarize("aligned splits", app, a.Estimates(), a.Iterations(), a.Done(), opt); err != nil {
		return
	}
	n, _, err := runSearch(opt, app, budget, core.SearchConfig{
		N: searchN, Interval: searchInterval, NoAlignSplits: true,
	})
	if err != nil {
		return
	}
	naive, err = summarize("naive splits", app, n.Estimates(), n.Iterations(), n.Done(), opt)
	return
}

// AblationPhase compares the search with and without the zero-miss
// retention heuristic. The heuristic matters when a phase change lands
// while the search is still refining multi-object regions, so the
// ablation uses a two-way search (few counters, many iterations) on
// su2cor, whose early propagator phase gives way to a long U-dominated
// phase mid-search — the paper's §3.4 scenario. (On applu, whose phase
// cycle is short relative to the initial jacobian phase, a ten-way search
// converges before the first phase flip and the heuristic is not
// exercised; see EXPERIMENTS.md.)
func AblationPhase(opt Options) (with, without AccuracySummary, err error) {
	opt = opt.withDefaults()
	const app = "su2cor"
	budget := opt.budgetFor(app)

	w, _, err := runSearch(opt, app, budget, core.SearchConfig{N: 2, Interval: searchInterval})
	if err != nil {
		return
	}
	if with, err = summarize("phase handling", app, w.Estimates(), w.Iterations(), w.Done(), opt); err != nil {
		return
	}
	wo, _, err := runSearch(opt, app, budget, core.SearchConfig{
		N: 2, Interval: searchInterval, NoPhaseHandling: true,
	})
	if err != nil {
		return
	}
	without, err = summarize("no phase handling", app, wo.Estimates(), wo.Iterations(), wo.Done(), opt)
	return
}

// AblationTimeshare compares dedicated per-region counters against the
// paper's "timeshare one conditional counter" alternative, which it notes
// "may lead to increased inaccuracy".
func AblationTimeshare(app string, phys int, opt Options) (dedicated, shared AccuracySummary, err error) {
	opt = opt.withDefaults()
	budget := opt.budgetFor(app)

	d, _, err := runSearch(opt, app, budget, core.SearchConfig{N: searchN, Interval: searchInterval})
	if err != nil {
		return
	}
	if dedicated, err = summarize("dedicated counters", app, d.Estimates(), d.Iterations(), d.Done(), opt); err != nil {
		return
	}

	cfg := membottle.DefaultConfig()
	cfg.Timeshare = phys
	cfg.ScalarRefs = opt.Scalar
	sys := membottle.NewSystem(cfg)
	if err = sys.LoadWorkloadByName(app); err != nil {
		return
	}
	s := core.NewSearch(core.SearchConfig{N: searchN, Interval: searchInterval})
	if err = sys.Attach(s); err != nil {
		return
	}
	sys.Run(budget)
	shared, err = summarize("timeshared counters", app, s.Estimates(), s.Iterations(), s.Done(), opt)
	return
}

// AblationRetirement compares the stock search against the RetireFound
// variant (the improvement the paper's conclusion proposes for the n-1
// result limit) using a counter-starved 4-way search on su2cor, whose 21
// skewed arrays overwhelm 4 counters: the stock search stops once the top
// 3 regions hold single objects, leaving the tail unexplored.
func AblationRetirement(opt Options) (plain, retire AccuracySummary, err error) {
	opt = opt.withDefaults()
	const app = "su2cor"
	budget := opt.budgetFor(app)

	p, _, err := runSearch(opt, app, budget, core.SearchConfig{N: 4, Interval: searchInterval})
	if err != nil {
		return
	}
	if plain, err = summarize("n-1 limit", app, p.Estimates(), p.Iterations(), p.Done(), opt); err != nil {
		return
	}
	r, _, err := runSearch(opt, app, budget, core.SearchConfig{
		N: 4, Interval: searchInterval, RetireFound: true,
	})
	if err != nil {
		return
	}
	retire, err = summarize("retire found regions", app, r.Estimates(), r.Iterations(), r.Done(), opt)
	return
}

// RenderAblation renders a pair of accuracy summaries side by side.
func RenderAblation(title string, a, b AccuracySummary) *report.Table {
	t := &report.Table{
		Title:   title,
		Headers: []string{"Variant", "Top correct", "Max |err|", "Mean |err|", "Spearman rho", "Iterations", "Done", "Found"},
	}
	for _, s := range []AccuracySummary{a, b} {
		found := ""
		for i, f := range s.Found {
			if i > 0 {
				found += " "
			}
			found += f
			if i >= 7 {
				found += " ..."
				break
			}
		}
		t.AddRow(s.Variant, boolStr(s.TopCorrect), report.Pct(s.MaxAbsErr), report.Pct(s.MeanAbsErr),
			report.Pct2(s.SpearmanRho), report.Rank(s.Iterations), boolStr(s.Done), found)
	}
	return t
}

func boolStr(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
