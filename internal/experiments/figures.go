package experiments

import (
	"fmt"

	"membottle/internal/core"
	"membottle/internal/report"
	"membottle/internal/truth"
)

// --- Figure 5: cache misses over time for applu -------------------------

// Figure5Result is the applu per-array miss time series.
type Figure5Result struct {
	BucketCycles uint64
	Names        []string
	Series       map[string][]uint64
}

// Figure5 reproduces the paper's Figure 5: per-interval cache-miss counts
// for applu's arrays, showing the phase structure in which a/b/c
// periodically drop to zero while rsd spikes.
func Figure5(opt Options) (Figure5Result, error) {
	opt = opt.withDefaults()
	sys := newSystem(opt, true)
	if err := sys.LoadWorkloadByName("applu"); err != nil {
		return Figure5Result{}, err
	}
	const bucket = 2_000_000
	sys.Truth.BucketCycles = bucket
	sys.Run(opt.budgetFor("applu"))

	names := []string{"a", "b", "c", "d", "rsd", "u", "frct"}
	res := Figure5Result{BucketCycles: bucket, Names: names, Series: map[string][]uint64{}}
	for _, n := range names {
		res.Series[n] = sys.Truth.Series(n)
	}
	return res, nil
}

// RenderFigure5 renders the time series as CSV-friendly rows: one row per
// bucket, one column per array ("A, B, C" plotted together in the paper).
func RenderFigure5(r Figure5Result) *report.Table {
	headers := append([]string{"interval"}, r.Names...)
	t := &report.Table{
		Title:   "Figure 5: Cache Misses over Time for Applu (misses per interval)",
		Headers: headers,
	}
	n := 0
	for _, s := range r.Series {
		if len(s) > n {
			n = len(s)
		}
	}
	for i := 0; i < n; i++ {
		row := make([]string, 0, len(headers))
		row = append(row, fmt.Sprintf("%d", i))
		for _, name := range r.Names {
			v := uint64(0)
			if i < len(r.Series[name]) {
				v = r.Series[name][i]
			}
			row = append(row, fmt.Sprintf("%d", v))
		}
		t.AddRow(row...)
	}
	return t
}

// --- Figure 2: greedy vs. priority-queue search ablation ----------------

// Figure2Result compares greedy refinement with the priority-queue search
// on the paper's Figure 2 layout.
type Figure2Result struct {
	Actual []truth.Row
	Greedy []core.Estimate
	PQ     []core.Estimate
	// Hottest is the true top object ("E").
	Hottest string
	// GreedyFoundHottest / PQFoundHottest: whether each variant reported it.
	GreedyFoundHottest bool
	PQFoundHottest     bool
}

// Figure2 reproduces the paper's Figure 2 scenario with a two-way search:
// without the priority queue the search descends into the hotter half and
// terminates on a 20% array; with it, the search backs up and finds E.
func Figure2(opt Options) (Figure2Result, error) {
	opt = opt.withDefaults()
	budget := opt.budgetFor("figure2")

	actual, _, err := runPlain(opt, "figure2", budget)
	if err != nil {
		return Figure2Result{}, err
	}
	greedy, _, err := runSearch(opt, "figure2", budget, core.SearchConfig{
		N: 2, Interval: searchInterval, Greedy: true,
	})
	if err != nil {
		return Figure2Result{}, err
	}
	pq, _, err := runSearch(opt, "figure2", budget, core.SearchConfig{
		N: 2, Interval: searchInterval,
	})
	if err != nil {
		return Figure2Result{}, err
	}

	res := Figure2Result{
		Actual:  actual.Ranked(),
		Greedy:  greedy.Estimates(),
		PQ:      pq.Estimates(),
		Hottest: topActual(actual),
	}
	res.GreedyFoundHottest = estRank(res.Greedy, res.Hottest) != 0
	res.PQFoundHottest = estRank(res.PQ, res.Hottest) != 0
	return res, nil
}

// RenderFigure2 renders the ablation comparison.
func RenderFigure2(r Figure2Result) *report.Table {
	t := &report.Table{
		Title:   "Figure 2 ablation: greedy vs. priority-queue two-way search",
		Headers: []string{"Object", "Actual %", "Greedy found", "Greedy %", "PQ found", "PQ %"},
	}
	for _, row := range r.Actual {
		name := row.Object.Name
		g, p := "", ""
		gp, pp := "", ""
		if rk := estRank(r.Greedy, name); rk != 0 {
			g, gp = fmt.Sprintf("rank %d", rk), report.Pct(estPct(r.Greedy, name))
		}
		if rk := estRank(r.PQ, name); rk != 0 {
			p, pp = fmt.Sprintf("rank %d", rk), report.Pct(estPct(r.PQ, name))
		}
		t.AddRow(name, report.Pct(row.Pct), g, gp, p, pp)
	}
	return t
}

// --- §3.1: sampling-interval resonance ----------------------------------

// ResonanceResult compares fixed-interval sampling with prime-interval and
// randomized sampling on tomcatv, whose interleaved RX/RY accesses alias
// with an even fixed interval.
type ResonanceResult struct {
	FixedInterval  uint64
	PrimeInterval  uint64
	Actual         []truth.Row
	Fixed          []core.Estimate
	Prime          []core.Estimate
	Random         []core.Estimate
	FixedMaxErr    float64 // max |estimate - actual| over reported objects
	PrimeMaxErr    float64
	RandomMaxErr   float64
	FixedRXRYSplit [2]float64 // estimated RX and RY percentages
	PrimeRXRYSplit [2]float64
}

// Resonance reproduces the paper's §3.1 experiment: fixed 1-in-K sampling
// on tomcatv skews the RX/RY estimates (the paper saw 37.1% vs 17.6% for
// two arrays that actually cause 22.5% each); a nearby prime interval (or
// pseudo-random spacing) restores accuracy.
func Resonance(opt Options) (ResonanceResult, error) {
	opt = opt.withDefaults()
	const app = "tomcatv"
	budget := opt.budgetFor(app)
	fixed := opt.sampleIntervalFor(app)

	actual, _, err := runPlain(opt, app, budget)
	if err != nil {
		return ResonanceResult{}, err
	}
	fs, _, err := runSampler(opt, app, budget, core.SamplerConfig{Interval: fixed, Mode: core.IntervalFixed})
	if err != nil {
		return ResonanceResult{}, err
	}
	ps, _, err := runSampler(opt, app, budget, core.SamplerConfig{Interval: fixed, Mode: core.IntervalPrime})
	if err != nil {
		return ResonanceResult{}, err
	}
	rs, _, err := runSampler(opt, app, budget, core.SamplerConfig{Interval: fixed, Mode: core.IntervalRandom, Seed: opt.Seed})
	if err != nil {
		return ResonanceResult{}, err
	}

	res := ResonanceResult{
		FixedInterval: fs.Interval(),
		PrimeInterval: ps.Interval(),
		Actual:        actual.Ranked(),
		Fixed:         fs.Estimates(),
		Prime:         ps.Estimates(),
		Random:        rs.Estimates(),
	}
	res.FixedMaxErr = maxErrVsActual(res.Fixed, actual)
	res.PrimeMaxErr = maxErrVsActual(res.Prime, actual)
	res.RandomMaxErr = maxErrVsActual(res.Random, actual)
	res.FixedRXRYSplit = [2]float64{estPct(res.Fixed, "RX"), estPct(res.Fixed, "RY")}
	res.PrimeRXRYSplit = [2]float64{estPct(res.Prime, "RX"), estPct(res.Prime, "RY")}
	return res, nil
}

// maxErrVsActual is the largest |estimated - actual| percentage over the
// application's real objects.
func maxErrVsActual(es []core.Estimate, actual *truth.Counter) float64 {
	max := 0.0
	for _, r := range actual.Ranked() {
		d := estPct(es, r.Object.Name) - r.Pct
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

// RenderResonance renders the §3.1 comparison.
func RenderResonance(r ResonanceResult) *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Sampling resonance on tomcatv (fixed interval %d vs prime %d)",
			r.FixedInterval, r.PrimeInterval),
		Headers: []string{"Object", "Actual %", "Fixed %", "Prime %", "Random %"},
	}
	for _, row := range r.Actual {
		name := row.Object.Name
		t.AddRow(name, report.Pct(row.Pct),
			report.Pct(estPct(r.Fixed, name)),
			report.Pct(estPct(r.Prime, name)),
			report.Pct(estPct(r.Random, name)))
	}
	t.AddRow("max |err|", "",
		report.Pct(r.FixedMaxErr), report.Pct(r.PrimeMaxErr), report.Pct(r.RandomMaxErr))
	return t
}
