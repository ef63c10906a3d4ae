// Command mbbench A/B-benchmarks pairs of engines that must issue
// identical reference streams, and emits one machine-readable
// BENCH_<family>.json per benchmark family.
//
// Every family is one row of a table: a list of modes (the first is the
// baseline), a runner that executes one application in one mode and
// returns the references it issued, and optionally an accuracy check.
// The rows are:
//
//   - table1: scalar vs batched engine on the uninstrumented ground-truth
//     runs behind Table 1's "Actual" column.
//   - figure3: the same, instrumented with the miss-interrupt sampler
//     (Figure 3's perturbation configuration), so batching is measured
//     with interrupts landing mid-stream.
//   - replay: recorded reference traces re-executed through a fresh
//     cache, the pure reference-stream hot path.
//   - obs-table1, obs-figure3: the batched engine with the observability
//     bundle off vs on, the instrumentation cost of observing the
//     simulator itself.
//   - truth: the sequential ground-truth engine vs the set-sharded one
//     across a worker sweep.
//   - intervals: full-run ground truth vs the representative-interval
//     engine, with each app's worst per-counter relative error reported.
//
// All modes of a family must issue the identical number of references
// (the engines are bit-identical by construction; this is a tripwire,
// not a tolerance). -min-speedup and -max-rel-err turn the aggregate
// speedup and the worst accuracy error into exit-code gates.
//
//	mbbench -quick -out .
//	mbbench -apps tomcatv,mgrid -budget 50000000
//	mbbench -family truth -quick -min-speedup 1.5
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"membottle"
	"membottle/internal/interval"
	"membottle/internal/shard"
	"membottle/internal/trace"
	"membottle/internal/truth"
)

// Result is one (workload, app, engine) measurement.
type Result struct {
	Workload        string  `json:"workload"`
	App             string  `json:"app"`
	Mode            string  `json:"mode"`
	Refs            uint64  `json:"refs"`
	WallNs          int64   `json:"wall_ns"`
	NsPerRef        float64 `json:"ns_per_ref"`
	RefsPerSec      float64 `json:"refs_per_sec"`
	Allocs          uint64  `json:"allocs"`
	Bytes           uint64  `json:"bytes,omitempty"`
	SpeedupVsScalar float64 `json:"speedup_vs_scalar,omitempty"`
	// MaxRelErr is the worst per-counter relative error of an approximate
	// mode against the exact baseline, in percent; only families with an
	// accuracy check set it (the others are bit-identical by contract).
	MaxRelErr float64 `json:"max_rel_err,omitempty"`
}

// File is the on-disk shape of one BENCH_*.json.
type File struct {
	Workload string   `json:"workload"`
	Budget   uint64   `json:"budget"`
	Results  []Result `json:"results"`
	// AggregateSpeedup is the baseline mode's total wall time over the
	// last mode's, across every app in the family — the family's
	// refs/sec ratio, since all modes issue identical reference streams.
	AggregateSpeedup float64 `json:"aggregate_speedup"`
}

// family is one row of the benchmark table.
type family struct {
	name  string
	modes []string // modes[0] is the baseline
	// prepare, if set, does an app's untimed setup before its modes are
	// measured.
	prepare func(app string) error
	run     func(app, mode string) (refs uint64, err error)
	// check, if set, returns the last mode's worst per-counter relative
	// error against the baseline for an app, in percent, after both ran.
	check func(app string, w io.Writer) float64
}

// families builds the benchmark table for one instruction budget.
func families(budget uint64) []family {
	scalarAB := func(sampled bool) func(app, mode string) (uint64, error) {
		return func(app, mode string) (uint64, error) {
			return runApp(app, config(mode == "scalar", false), sampled, budget)
		}
	}
	obsAB := func(sampled bool) func(app, mode string) (uint64, error) {
		return func(app, mode string) (uint64, error) {
			return runApp(app, config(false, mode == "obs-on"), sampled, budget)
		}
	}
	engineAB := []string{"scalar", "batched"}
	obsModes := []string{"obs-off", "obs-on"}

	// replay records one in-memory trace per app (recording runs on the
	// scalar path by construction — the recorder observes every reference
	// — and is setup cost, not measured time), then replays it through
	// fresh caches, cycling the trace until the budget is spent. The
	// recorded prefix is bounded because Replay keeps the compiled trace
	// in memory.
	var rp *trace.Replay
	recordReplay := func(app string) error {
		w, err := membottle.NewWorkload(app)
		if err != nil {
			return err
		}
		cfg := config(true, false)
		cfg.SkipTruth = true
		rec := membottle.NewSystem(cfg)
		rec.LoadWorkload(w)
		var buf bytes.Buffer
		if _, err := trace.Record(&buf, w, rec.Machine, min(budget, 8_000_000)); err != nil {
			return err
		}
		rp, err = trace.NewReplay(app, &buf)
		return err
	}
	runReplay := func(app, mode string) (uint64, error) {
		rp.Reset()
		cfg := config(mode == "scalar", false)
		cfg.SkipTruth = true
		sys := membottle.NewSystem(cfg)
		sys.LoadWorkload(rp)
		sys.Run(budget)
		return sys.Machine.Cache.Stats.Accesses(), nil
	}

	// truth sweeps the sharded engine's worker count (1, 2, 4, NumCPU);
	// the aggregate compares the sequential total against the widest.
	workerSweep := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		workerSweep = append(workerSweep, n)
	}
	truthModes := []string{"seq"}
	workersOf := map[string]int{}
	for _, w := range workerSweep {
		mode := fmt.Sprintf("shard-w%d", w)
		truthModes = append(truthModes, mode)
		workersOf[mode] = w
	}
	runTruth := func(app, mode string) (uint64, error) {
		if mode == "seq" {
			return runApp(app, config(false, false), false, budget)
		}
		w, err := membottle.NewWorkload(app)
		if err != nil {
			return 0, err
		}
		res, err := shard.Run(nil, w, budget, shard.Config{Workers: workersOf[mode]})
		if err != nil {
			return 0, err
		}
		return res.Stats.Accesses(), nil
	}

	// intervals: the A side is the experiments layer's full-run ground
	// truth (the sharded engine Table 1's "Actual" column comes from), the
	// B side extrapolates from cluster representatives only. Its truth
	// tables are estimates, so each app's error against the exact tables
	// is checked — the speed is only worth having while the differential
	// oracle stays satisfied.
	var oracle, est *truth.Counter
	runIntervals := func(app, mode string) (uint64, error) {
		w, err := membottle.NewWorkload(app)
		if err != nil {
			return 0, err
		}
		if mode == "full" {
			res, err := shard.Run(nil, w, budget, shard.Config{})
			if err != nil {
				return 0, err
			}
			oracle = res.Truth
			return res.Stats.Accesses(), nil
		}
		res, err := interval.Run(nil, w, budget, interval.Config{})
		if err != nil {
			return 0, err
		}
		est = res.Truth
		return res.Plan.TotalRefs, nil
	}
	checkIntervals := func(app string, out io.Writer) float64 {
		rep := interval.Compare(est, oracle, 0)
		fmt.Fprintf(out, "%-11s %-9s max rel err %.2f%% (total %.2f%%, mean %.2f%%)\n",
			"intervals", app, rep.MaxRel, rep.TotalRel, rep.MeanRel)
		return rep.MaxRel
	}

	return []family{
		{name: "table1", modes: engineAB, run: scalarAB(false)},
		{name: "figure3", modes: engineAB, run: scalarAB(true)},
		{name: "replay", modes: engineAB, prepare: recordReplay, run: runReplay},
		{name: "obs-table1", modes: obsModes, run: obsAB(false)},
		{name: "obs-figure3", modes: obsModes, run: obsAB(true)},
		{name: "truth", modes: truthModes, run: runTruth},
		{name: "intervals", modes: []string{"full", "intervals"}, run: runIntervals, check: checkIntervals},
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mbbench:", err)
		os.Exit(1)
	}
}

// run parses the command line, measures every selected family and
// writes its BENCH_<family>.json to the output directory. A failed
// measurement or a missed gate is an error.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mbbench", flag.ExitOnError)
	var (
		quick   = fs.Bool("quick", false, "small budgets and an app subset, for CI smoke runs")
		outDir  = fs.String("out", ".", "directory for BENCH_*.json files")
		budget  = fs.Uint64("budget", 0, "application instruction budget per run (0: 130M, or 20M with -quick)")
		appsArg = fs.String("apps", "", "comma-separated workload subset (default: the paper's seven, or three with -quick)")
		reps    = fs.Int("reps", 3, "repetitions per configuration; the fastest is reported")
		famArg  = fs.String("family", "table1,figure3,replay", "comma-separated benchmark families: table1, figure3, replay, obs-table1, obs-figure3, truth, intervals")
		minSpd  = fs.Float64("min-speedup", 0, "exit nonzero unless each selected family's aggregate speedup reaches this floor (CI gate)")
		maxErr  = fs.Float64("max-rel-err", 0, "exit nonzero if any app's max per-counter relative error exceeds this percentage, in families with an accuracy check (CI gate)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	apps := []string{"tomcatv", "swim", "su2cor", "mgrid", "applu", "compress", "ijpeg"}
	if *quick {
		apps = []string{"tomcatv", "mgrid", "compress"}
	}
	if *appsArg != "" {
		apps = strings.Split(*appsArg, ",")
	}
	b := *budget
	if b == 0 {
		b = 130_000_000
		if *quick {
			b = 20_000_000
		}
	}

	table := families(b)
	var selected []family
	for _, name := range strings.Split(*famArg, ",") {
		i := slices.IndexFunc(table, func(f family) bool { return f.name == name })
		if i < 0 {
			return fmt.Errorf("unknown family %q", name)
		}
		selected = append(selected, table[i])
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	for _, f := range selected {
		if err := runFamily(f, apps, b, *reps, *outDir, *minSpd, *maxErr, out); err != nil {
			return err
		}
	}
	return nil
}

// runFamily measures one family on every app, writes its
// BENCH_<family>.json, and then applies the gates: the aggregate
// speedup must reach minSpeedup and, for families with an accuracy
// check, no app's error may exceed maxRelErr (0 disables either gate).
func runFamily(f family, apps []string, budget uint64, reps int, outDir string, minSpeedup, maxRelErr float64, out io.Writer) error {
	file := File{Workload: f.name, Budget: budget}
	totals := make([]int64, len(f.modes))
	worstApp, worstErr := "", 0.0
	for _, app := range apps {
		if f.prepare != nil {
			if err := f.prepare(app); err != nil {
				return fmt.Errorf("%s/%s: %w", f.name, app, err)
			}
		}
		rs, err := measureModes(f.name, app, reps, f.modes, f.run)
		if err != nil {
			return err
		}
		line := fmt.Sprintf("%-11s %-9s %12d refs", f.name, app, rs[0].Refs)
		for mi, r := range rs {
			totals[mi] += r.WallNs
			line += fmt.Sprintf("  %s %6.2f ns/ref", r.Mode, r.NsPerRef)
		}
		fmt.Fprintf(out, "%s  ratio %.2fx\n", line, rs[len(rs)-1].SpeedupVsScalar)
		if f.check != nil {
			e := f.check(app, out)
			rs[len(rs)-1].MaxRelErr = e
			if worstApp == "" || e > worstErr {
				worstApp, worstErr = app, e
			}
		}
		file.Results = append(file.Results, rs...)
	}
	last := len(f.modes) - 1
	file.AggregateSpeedup = float64(totals[0]) / float64(totals[last])
	fmt.Fprintf(out, "%-11s aggregate: %s %v, %s %v, speedup %.2fx (NumCPU=%d)\n",
		f.name, f.modes[0], time.Duration(totals[0]), f.modes[last], time.Duration(totals[last]),
		file.AggregateSpeedup, runtime.NumCPU())

	path := filepath.Join(outDir, "BENCH_"+f.name+".json")
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", path)

	if minSpeedup > 0 && file.AggregateSpeedup < minSpeedup {
		return fmt.Errorf("%s: aggregate speedup %.2fx below the %.2fx floor (%s vs %s)",
			f.name, file.AggregateSpeedup, minSpeedup, f.modes[last], f.modes[0])
	}
	if maxRelErr > 0 && worstErr > maxRelErr {
		return fmt.Errorf("%s: %s max relative counter error %.2f%% above the %.2f%% ceiling",
			f.name, worstApp, worstErr, maxRelErr)
	}
	return nil
}

// measureModes runs one configuration in every mode and cross-checks
// them; modes[0] is the baseline the others' speedups are computed
// against. The modes alternate within each repetition, and each mode's
// fastest repetition is reported: alternation exposes all modes to the
// same load windows on a shared host, and the minimum discards
// repetitions that lost the CPU entirely. Every mode must issue the
// identical number of references across repetitions and across modes
// (the engines are bit-identical by construction; this is a tripwire,
// not a tolerance).
func measureModes(workload, app string, reps int, modes []string, run func(app, mode string) (uint64, error)) ([]Result, error) {
	reps = max(reps, 1)
	out := make([]Result, len(modes))
	for rep := 0; rep < reps; rep++ {
		for mi, mode := range modes {
			var refs uint64
			var err error
			wall, allocs, heap := measure(func() { refs, err = run(app, mode) })
			if err != nil {
				return nil, fmt.Errorf("%s/%s (%s): %w", workload, app, mode, err)
			}
			r := &out[mi]
			if rep > 0 && refs != r.Refs {
				return nil, fmt.Errorf("%s/%s (%s): repetitions issued %d then %d refs — run is nondeterministic",
					workload, app, mode, r.Refs, refs)
			}
			if rep == 0 || wall < r.WallNs {
				r.WallNs, r.Allocs, r.Bytes = wall, allocs, heap
			}
			r.Refs = refs
		}
	}
	for mi, mode := range modes {
		r := &out[mi]
		if r.Refs != out[0].Refs {
			return nil, fmt.Errorf("%s/%s: %s issued %d refs, %s %d — runs diverged",
				workload, app, modes[0], out[0].Refs, mode, r.Refs)
		}
		r.Workload, r.App, r.Mode = workload, app, mode
		r.NsPerRef = float64(r.WallNs) / float64(r.Refs)
		r.RefsPerSec = float64(r.Refs) / (float64(r.WallNs) / 1e9)
		if mi > 0 {
			r.SpeedupVsScalar = float64(out[0].WallNs) / float64(r.WallNs)
		}
	}
	return out, nil
}

// measure times fn and reports (wall ns, heap allocations, heap bytes).
func measure(fn func()) (int64, uint64, uint64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	wall := time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&after)
	return wall, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// config is the default system configuration on the scalar or batched
// engine, with a fresh observability bundle attached when withObs.
func config(scalar, withObs bool) membottle.Config {
	cfg := membottle.DefaultConfig()
	cfg.ScalarRefs = scalar
	if withObs {
		cfg.Obs = membottle.NewObs(membottle.ObsOptions{})
	}
	return cfg
}

// runApp runs app for budget instructions with exact ground truth
// attached — Table 1's "Actual" configuration — or, when sampled, with
// Figure 3's miss-interrupt sampler firing throughout, so batches end at
// interrupt points. It returns the references the cache saw.
func runApp(app string, cfg membottle.Config, sampled bool, budget uint64) (uint64, error) {
	sys := membottle.NewSystem(cfg)
	if err := sys.LoadWorkloadByName(app); err != nil {
		return 0, err
	}
	if sampled {
		if err := sys.Attach(membottle.NewSampler(membottle.SamplerConfig{Interval: 2_000})); err != nil {
			return 0, err
		}
	}
	sys.Run(budget)
	sys.FlushObs()
	return sys.Machine.Cache.Stats.Accesses(), nil
}
