// Benchmarks regenerating every table and figure in the paper's
// evaluation (shrunken budgets so each iteration is seconds, not minutes;
// use cmd/mbtables and cmd/mbfigures for full-budget runs, or -paper for
// paper-fidelity parameters). Custom metrics report the quantities the
// paper's tables and figures plot, so `go test -bench . -benchmem`
// doubles as a regression harness for the reproduction.
package membottle_test

import (
	"bytes"
	"testing"

	"membottle"
	"membottle/internal/experiments"
	"membottle/internal/trace"
)

// benchOpt shrinks run budgets for benchmarking.
func benchOpt() experiments.Options {
	return experiments.Options{Budget: 40_000_000}
}

// --- Table 1: one benchmark per application ------------------------------

func benchTable1App(b *testing.B, app string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1App(app, benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) == 0 {
			b.Fatal("empty table")
		}
		// Report the worst absolute error of the search column against
		// ground truth — the quantity Table 1 is about.
		worst := 0.0
		for _, row := range r.Rows {
			if row.SearchRank == 0 {
				continue
			}
			if d := row.SearchPct - row.ActualPct; d > worst {
				worst = d
			} else if -d > worst {
				worst = -d
			}
		}
		b.ReportMetric(worst, "search-max-err-pct")
	}
}

func BenchmarkTable1Tomcatv(b *testing.B)  { benchTable1App(b, "tomcatv") }
func BenchmarkTable1Swim(b *testing.B)     { benchTable1App(b, "swim") }
func BenchmarkTable1Su2cor(b *testing.B)   { benchTable1App(b, "su2cor") }
func BenchmarkTable1Mgrid(b *testing.B)    { benchTable1App(b, "mgrid") }
func BenchmarkTable1Applu(b *testing.B)    { benchTable1App(b, "applu") }
func BenchmarkTable1Compress(b *testing.B) { benchTable1App(b, "compress") }
func BenchmarkTable1Ijpeg(b *testing.B)    { benchTable1App(b, "ijpeg") }

// --- Table 2: two-way versus ten-way search ------------------------------

func BenchmarkTable2TwoWayVsTenWay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2App("mgrid", benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		found := 0.0
		if r.TwoWayFoundTop {
			found = 1
		}
		b.ReportMetric(found, "2way-found-top")
	}
}

// --- Figure 2: greedy-search ablation -------------------------------------

func BenchmarkFigure2Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure2(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		pq, greedy := 0.0, 0.0
		if r.PQFoundHottest {
			pq = 1
		}
		if r.GreedyFoundHottest {
			greedy = 1
		}
		b.ReportMetric(pq, "pq-found-hottest")
		b.ReportMetric(greedy, "greedy-found-hottest")
	}
}

// --- Figures 3 and 4: perturbation and cost sweep -------------------------

func benchPerturb(b *testing.B, app string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.PerturbationApp(app, benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Config {
			case "sample(1000)":
				b.ReportMetric(r.SlowdownPct, "sample1k-slowdown-pct")
				b.ReportMetric(r.MissIncreasePct, "sample1k-miss-increase-pct")
			case "search":
				b.ReportMetric(r.SlowdownPct, "search-slowdown-pct")
				b.ReportMetric(r.InterruptsPerBCyc, "search-irqs-per-bcyc")
			}
		}
	}
}

func BenchmarkFigure3And4Mgrid(b *testing.B)    { benchPerturb(b, "mgrid") }
func BenchmarkFigure3And4Compress(b *testing.B) { benchPerturb(b, "compress") }
func BenchmarkFigure3And4Ijpeg(b *testing.B)    { benchPerturb(b, "ijpeg") }

// --- Figure 5: applu phase time series -------------------------------------

func BenchmarkFigure5Phases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure5(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		zero := 0
		for _, v := range r.Series["a"] {
			if v == 0 {
				zero++
			}
		}
		b.ReportMetric(float64(zero), "zero-buckets-a")
	}
}

// --- §3.1 resonance study ---------------------------------------------------

func BenchmarkResonance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Resonance(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.FixedMaxErr, "fixed-max-err-pct")
		b.ReportMetric(r.PrimeMaxErr, "prime-max-err-pct")
	}
}

// --- design ablations --------------------------------------------------------

func BenchmarkAblationAlignment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		aligned, naive, err := experiments.AblationAlignment("tomcatv", benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(aligned.MeanAbsErr, "aligned-mean-err-pct")
		b.ReportMetric(naive.MeanAbsErr, "naive-mean-err-pct")
	}
}

func BenchmarkAblationPhaseHandling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with, without, err := experiments.AblationPhase(experiments.Options{Budget: 170_000_000})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(with.MeanAbsErr, "with-mean-err-pct")
		b.ReportMetric(without.MeanAbsErr, "without-mean-err-pct")
	}
}

func BenchmarkAblationTimeshare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ded, shr, err := experiments.AblationTimeshare("mgrid", 2, benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ded.MeanAbsErr, "dedicated-mean-err-pct")
		b.ReportMetric(shr.MeanAbsErr, "timeshared-mean-err-pct")
	}
}

// --- microbenchmarks: simulator throughput ---------------------------------

// benchThroughput times app's simulation, with prof (if non-nil)
// attached before the timed run.
func benchThroughput(b *testing.B, app string, scalar bool, prof membottle.Profiler) {
	b.Helper()
	cfg := membottle.DefaultConfig()
	cfg.ScalarRefs = scalar
	sys := membottle.NewSystem(cfg)
	if err := sys.LoadWorkloadByName(app); err != nil {
		b.Fatal(err)
	}
	if prof != nil {
		if err := sys.Attach(prof); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	sys.Run(uint64(b.N))
	b.StopTimer()
	if sys.Machine.AppInsts < uint64(b.N) {
		b.Fatal("budget not consumed")
	}
	refs := sys.Machine.Cache.Stats.Accesses()
	b.ReportMetric(float64(refs)*1e9/float64(b.Elapsed().Nanoseconds()), "refs/s")
}

// The batched/scalar pairs below are the Go-benchmark view of what
// cmd/mbbench measures: identical simulations through the batched hot
// path and through the per-reference oracle loop.

func BenchmarkSimulationThroughput(b *testing.B)       { benchThroughput(b, "mgrid", false, nil) }
func BenchmarkSimulationThroughputScalar(b *testing.B) { benchThroughput(b, "mgrid", true, nil) }
func BenchmarkSimulationTomcatv(b *testing.B)          { benchThroughput(b, "tomcatv", false, nil) }
func BenchmarkSimulationTomcatvScalar(b *testing.B)    { benchThroughput(b, "tomcatv", true, nil) }

// The TimerArmed pair runs mgrid under the n-way search, which keeps a
// PMU cycle timer armed for the whole run: the batched engine's
// cycle-event path, which the pairs above never reach.

func BenchmarkSimulationThroughputTimerArmed(b *testing.B) {
	benchThroughput(b, "mgrid", false, membottle.NewSearch(membottle.SearchConfig{N: 10}))
}

func BenchmarkSimulationThroughputTimerArmedScalar(b *testing.B) {
	benchThroughput(b, "mgrid", true, membottle.NewSearch(membottle.SearchConfig{N: 10}))
}

func benchReplay(b *testing.B, scalar bool) {
	b.Helper()
	w, err := membottle.NewWorkload("tomcatv")
	if err != nil {
		b.Fatal(err)
	}
	recCfg := membottle.DefaultConfig()
	recCfg.ScalarRefs = true
	recCfg.SkipTruth = true
	rec := membottle.NewSystem(recCfg)
	rec.LoadWorkload(w)
	var buf bytes.Buffer
	if _, err := trace.Record(&buf, w, rec.Machine, 2_000_000); err != nil {
		b.Fatal(err)
	}
	rp, err := trace.NewReplay("tomcatv", &buf)
	if err != nil {
		b.Fatal(err)
	}
	cfg := membottle.DefaultConfig()
	cfg.ScalarRefs = scalar
	cfg.SkipTruth = true
	sys := membottle.NewSystem(cfg)
	sys.LoadWorkload(rp)
	b.ResetTimer()
	sys.Run(uint64(b.N))
	b.StopTimer()
	refs := sys.Machine.Cache.Stats.Accesses()
	b.ReportMetric(float64(refs)*1e9/float64(b.Elapsed().Nanoseconds()), "refs/s")
}

func BenchmarkTraceReplay(b *testing.B)       { benchReplay(b, false) }
func BenchmarkTraceReplayScalar(b *testing.B) { benchReplay(b, true) }

func BenchmarkSamplerOverheadPath(b *testing.B) {
	sys := membottle.NewSystem(membottle.DefaultConfig())
	if err := sys.LoadWorkloadByName("mgrid"); err != nil {
		b.Fatal(err)
	}
	prof := membottle.NewSampler(membottle.SamplerConfig{Interval: 1000})
	if err := sys.Attach(prof); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	sys.Run(uint64(b.N))
}

func BenchmarkSearchIterationPath(b *testing.B) {
	sys := membottle.NewSystem(membottle.DefaultConfig())
	if err := sys.LoadWorkloadByName("mgrid"); err != nil {
		b.Fatal(err)
	}
	prof := membottle.NewSearch(membottle.SearchConfig{N: 10, Interval: 500_000})
	if err := sys.Attach(prof); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	sys.Run(uint64(b.N))
}

func BenchmarkAblationRetirement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plain, retire, err := experiments.AblationRetirement(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(plain.Found)), "plain-objects-found")
		b.ReportMetric(float64(len(retire.Found)), "retire-objects-found")
	}
}
