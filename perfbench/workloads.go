package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"time"

	"membottle"
	"membottle/internal/experiments"
	"membottle/internal/machine"
)

// kind selects which experiment a workload's passes run.
type kind int

const (
	kindTable1   kind = iota // experiments.Table1
	kindInterval             // experiments.IntervalErrors
	kindStore                // store reads and writes (storemix.go)
)

// workload is one named input set. Why each exists, and which layers it
// is meant to move, is recorded in BENCHMARK.json and README.md.
type workload struct {
	name   string
	kind   kind
	apps   []string
	budget uint64 // application instructions per simulated run
	rep    string // the app whose stream the traced run stacks layers over
}

var denseApps = []string{"tomcatv", "swim", "su2cor", "mgrid", "applu"}

var workloads = []workload{
	{name: "table1-dense", kind: kindTable1, apps: denseApps, budget: 10_000_000, rep: "mgrid"},
	{name: "table1-sparse", kind: kindTable1, apps: []string{"compress", "ijpeg"}, budget: 100_000_000, rep: "compress"},
	{name: "interval-report", kind: kindInterval, apps: denseApps, budget: 30_000_000, rep: "mgrid"},
	{name: "store-mixed", kind: kindStore, apps: experiments.PaperApps(), budget: 2_000_000, rep: "mgrid"},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options are the experiment options every pass of w uses. Cells run one
// at a time: with two in flight, each with its own shard and truth
// goroutines, how they interleave changes from run to run, and in
// interleaved runs on a 2-vCPU VM the spread of wall_s over seeds was
// 0.165 (table1-dense) and 0.189 (table1-sparse) against 0.025 and
// 0.058 with one cell at a time.
func (w workload) options(seed int64) experiments.Options {
	return experiments.Options{
		Apps:         w.apps,
		Budget:       w.budget,
		Seed:         seed,
		Parallel:     1,
		TruthWorkers: workers(),
	}
}

// oracleOptions pin every run to the exact reference engines: the
// per-reference scalar machine and the sequential ground-truth engine.
func oracleOptions(opt experiments.Options) experiments.Options {
	opt.Scalar = true
	opt.SeqTruth = true
	return opt
}

// passStats is what one pass over a workload's operations produced.
type passStats struct {
	ops, failed int
	// opSecs holds per-operation latencies where operations are timed one
	// by one; a simulation pass is one timed operation, because its cells
	// run inside one call into the experiments package.
	opSecs []float64
	// refs is the number of simulated references the pass's results cover.
	refs float64
	// errPP is the worst error, in percentage points of all misses, of
	// any per-object share the results estimate against the exact share.
	errPP float64
	// input is which of the job's input sets the pass ran (see
	// job.inputs).
	input int
}

// job is a workload after set-up.
type job interface {
	// inputs is how many input sets the job's passes cycle through. A run
	// measures whole cycles and reports the median of per-input medians,
	// so which inputs a run covers does not depend on how fast they run.
	inputs() int
	// pass runs one batch of the workload's operations and keeps their
	// outputs for check. Only pass is timed.
	pass() passStats
	// check compares the last pass's outputs with the oracle and fills in
	// the pass's operation, failure, reference and error counts.
	check(ps *passStats)
	// verify makes the checks that can only run after the measured
	// section and returns how many operations they failed.
	verify() int
	// details are human-readable lines naming the accuracy and
	// instrumentation-cost figures behind the results.
	details() []string
	close() error
}

func (w workload) setup(seed int64, scratch string) (job, error) {
	if w.kind == kindStore {
		return newStoreMix(w, seed, scratch)
	}
	return newSimJob(w, seed)
}

// intervalSeeds is how many k-means seeds the interval report cycles
// through: seeds 1 to intervalSeeds, in an order --seed shuffles. Which
// representatives the engine simulates, and so its time and error, depend
// on the k-means seed, and its error varies by a fifth from seed to seed.
// A fixed set makes est_err_pp exact rather than a sample, so any change
// to the engine's results shows in it.
const intervalSeeds = 16

// simJob runs Table 1 or the interval error report over the workload's
// apps and compares every cell with the exact engines' cell.
type simJob struct {
	w        workload
	opt      experiments.Options
	table1   []experiments.AppResult      // oracle cells, kindTable1
	interval []experiments.IntervalResult // oracle cells, kindInterval
	// refs is the simulated references one pass's results cover: each
	// Table 1 cell simulates the app's stream three times (plain,
	// sampling, search), each interval cell twice (exact and interval).
	refs float64
	// passes counts the passes run.
	passes int
	// kmeans is the order in which interval passes take their k-means
	// seeds; the oracle ran the first.
	kmeans []int64
	// gotTable1 and gotInterval are the last pass's cells.
	gotTable1   []experiments.AppResult
	gotInterval []experiments.IntervalResult
}

func newSimJob(w workload, seed int64) (*simJob, error) {
	j := &simJob{w: w, opt: w.options(seed)}
	runs := 3.0
	var err error
	if w.kind == kindInterval {
		runs = 2
		for _, k := range rand.New(rand.NewSource(seed)).Perm(intervalSeeds) {
			j.kmeans = append(j.kmeans, int64(k+1))
		}
		j.opt.Seed = j.kmeans[0]
		j.interval, err = experiments.IntervalErrors(oracleOptions(j.opt))
	} else {
		j.table1, err = experiments.Table1(oracleOptions(j.opt))
	}
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	for _, app := range w.apps {
		n, err := appRefs(app, w.budget)
		if err != nil {
			return nil, err
		}
		j.refs += runs * float64(n)
	}
	return j, nil
}

func (j *simJob) inputs() int {
	if j.w.kind == kindInterval {
		return intervalSeeds
	}
	return 1
}

func (j *simJob) pass() passStats {
	ps := passStats{input: j.passes % j.inputs()}
	j.passes++
	start := time.Now()
	if j.w.kind == kindInterval {
		opt := j.opt
		opt.Seed = j.kmeans[ps.input]
		j.gotInterval, _ = experiments.IntervalErrors(opt)
	} else {
		j.gotTable1, _ = experiments.Table1(j.opt)
	}
	ps.opSecs = []float64{time.Since(start).Seconds()}
	return ps
}

// check compares the cells with the oracle's. Interval passes that ran
// the oracle's own k-means seed must match it exactly; the others are
// held to checkIntervalCells.
func (j *simJob) check(ps *passStats) {
	ps.refs = j.refs
	switch {
	case j.w.kind == kindTable1:
		ps.ops, ps.failed = checkCells(j.gotTable1, j.table1)
		ps.errPP = table1ErrPP(j.gotTable1)
	case ps.input == 0:
		ps.ops, ps.failed = checkCells(j.gotInterval, j.interval)
		ps.errPP = intervalErrPP(j.gotInterval)
	default:
		ps.ops, ps.failed = checkIntervalCells(j.gotInterval, j.interval)
		ps.errPP = intervalErrPP(j.gotInterval)
	}
}

func (j *simJob) verify() int  { return 0 }
func (j *simJob) close() error { return nil }

func (j *simJob) details() []string {
	if j.w.kind == kindInterval {
		return []string{fmt.Sprintf("interval_err_pct %g %%", intervalMaxRel(j.interval))}
	}
	return table1Details(j.table1)
}

// checkCells compares each result cell with the oracle's cell for the
// same app. A cell fails when it carries an error, differs from the
// oracle in any field, or is missing.
func checkCells[T any](got, want []T) (ops, failed int) {
	for i := range want {
		if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
			failed++
		}
	}
	return len(want), failed
}

// intervalTotalBound is the interval engine's stated bound on its total
// miss count's relative error for the dense apps, in percent.
const intervalTotalBound = 1.0

// checkIntervalCells checks interval cells whose k-means seed differs from
// the oracle's: every exact figure (the reference count, the total and
// per-object exact miss counts) must equal the oracle's, and the
// extrapolated total must stay within the engine's stated bound.
func checkIntervalCells(got, want []experiments.IntervalResult) (ops, failed int) {
	for i, w := range want {
		if i >= len(got) || !sameExact(got[i], w) || got[i].Report.TotalRel > intervalTotalBound {
			failed++
		}
	}
	return len(want), failed
}

func sameExact(a, b experiments.IntervalResult) bool {
	if a.Err != nil || a.App != b.App || a.TotalRefs != b.TotalRefs ||
		a.Report.TotalActual != b.Report.TotalActual || len(a.Report.Rows) != len(b.Report.Rows) {
		return false
	}
	for k, row := range a.Report.Rows {
		if row.Name != b.Report.Rows[k].Name || row.Actual != b.Report.Rows[k].Actual {
			return false
		}
	}
	return true
}

// table1ErrPP is the worst |estimate% - actual%| over every Table 1 row
// and both techniques; an object a technique did not report counts with
// an estimate of zero.
func table1ErrPP(rs []experiments.AppResult) float64 {
	var worst float64
	for _, r := range rs {
		search, sample := cellErrs(r)
		worst = max(worst, search, sample)
	}
	return worst
}

// cellErrs is the worst per-technique |estimate% - actual%| of one cell.
func cellErrs(r experiments.AppResult) (search, sample float64) {
	for _, row := range r.Rows {
		search = max(search, math.Abs(row.SearchPct-row.ActualPct))
		sample = max(sample, math.Abs(row.SamplePct-row.ActualPct))
	}
	return search, sample
}

// intervalErrPP is the worst difference, in percentage points, between an
// object's share of the interval engine's extrapolated misses and its
// share of the exact engine's.
func intervalErrPP(rs []experiments.IntervalResult) float64 {
	var worst float64
	for _, r := range rs {
		rep := r.Report
		if rep.TotalActual == 0 || rep.TotalEst == 0 {
			continue
		}
		for _, row := range rep.Rows {
			est := 100 * float64(row.Est) / float64(rep.TotalEst)
			act := 100 * float64(row.Actual) / float64(rep.TotalActual)
			worst = max(worst, math.Abs(est-act))
		}
	}
	return worst
}

func intervalMaxRel(rs []experiments.IntervalResult) float64 {
	var worst float64
	for _, r := range rs {
		worst = max(worst, r.Report.MaxRel)
	}
	return worst
}

// table1Details names the paper's accuracy and instrumentation-cost
// figures for a set of Table 1 cells: the worst per-technique error and
// the worst simulated slowdown.
func table1Details(rs []experiments.AppResult) []string {
	var searchErr, sampleErr, searchSlow, sampleSlow float64
	for _, r := range rs {
		search, sample := cellErrs(r)
		searchErr, sampleErr = max(searchErr, search), max(sampleErr, sample)
		searchSlow = max(searchSlow, r.SearchOverhead.SlowdownPct())
		sampleSlow = max(sampleSlow, r.SampleOverhead.SlowdownPct())
	}
	return []string{
		fmt.Sprintf("search_err_pp %g pp", searchErr),
		fmt.Sprintf("sample_err_pp %g pp", sampleErr),
		fmt.Sprintf("search_slowdown_pct %g %%", searchSlow),
		fmt.Sprintf("sample_slowdown_pct %g %%", sampleSlow),
	}
}

// refCounter is a capture sink that only counts references.
type refCounter struct{ refs uint64 }

func (c *refCounter) ConsumeRefs(refs []machine.Ref, _ uint64) { c.refs += uint64(len(refs)) }

// newSystem builds a simulated system with the paper's configuration and
// the named app loaded.
func newSystem(app string, truth bool) (*membottle.System, error) {
	cfg := membottle.DefaultConfig()
	cfg.SkipTruth = !truth
	sys := membottle.NewSystem(cfg)
	if err := sys.LoadWorkloadByName(app); err != nil {
		return nil, err
	}
	return sys, nil
}

// appRefs is the number of application references one run of app makes
// over budget instructions, counted by a capture-mode run.
func appRefs(app string, budget uint64) (uint64, error) {
	sys, err := newSystem(app, false)
	if err != nil {
		return 0, err
	}
	var c refCounter
	sys.Machine.SetCapture(&c)
	sys.Run(budget)
	sys.Machine.FlushCapture()
	return c.refs, nil
}
