// Command mbbench measures the simulation engine's hot-path throughput on
// the paper's workloads, in both the batched engine and the scalar
// reference loop, and emits machine-readable BENCH_*.json result files.
//
// Three workload families are measured:
//
//   - table1: the uninstrumented ground-truth runs behind Table 1's
//     "Actual" column, one per application.
//   - figure3: the same applications instrumented with the miss-interrupt
//     sampler, Figure 3's perturbation configuration, so batching is
//     measured with interrupts landing mid-stream.
//   - replay: recorded reference traces re-executed through a fresh cache,
//     the pure reference-stream hot path.
//
// Every configuration runs twice — ScalarRefs on and off — and the two
// runs must issue the identical number of references (the engines are
// bit-identical by construction; this is a tripwire, not a tolerance).
//
//	mbbench -quick -out .
//	mbbench -apps tomcatv,mgrid -budget 50000000
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"membottle"
	"membottle/internal/analysis"
	"membottle/internal/experiments"
	"membottle/internal/interval"
	"membottle/internal/obs"
	"membottle/internal/shard"
	"membottle/internal/store"
	"membottle/internal/trace"
	"membottle/internal/truth"
)

// Result is one (workload, app, engine) measurement.
type Result struct {
	Workload        string  `json:"workload"`
	App             string  `json:"app"`
	Mode            string  `json:"mode"` // "scalar" or "batched"
	Refs            uint64  `json:"refs"`
	WallNs          int64   `json:"wall_ns"`
	NsPerRef        float64 `json:"ns_per_ref"`
	RefsPerSec      float64 `json:"refs_per_sec"`
	Allocs          uint64  `json:"allocs"`
	Bytes           uint64  `json:"bytes,omitempty"`
	SpeedupVsScalar float64 `json:"speedup_vs_scalar,omitempty"`
	// MaxRelErr is the worst per-counter relative error of an approximate
	// mode against the exact baseline, in percent; only the -intervals
	// family sets it (the other families are bit-identical by contract).
	MaxRelErr float64 `json:"max_rel_err,omitempty"`
}

// File is the on-disk shape of one BENCH_*.json.
type File struct {
	Workload string   `json:"workload"`
	Budget   uint64   `json:"budget"`
	Results  []Result `json:"results"`
	// AggregateSpeedup is total scalar wall time over total batched wall
	// time across every app in this workload family — the family's
	// refs/sec ratio, since both engines issue identical reference
	// streams.
	AggregateSpeedup float64 `json:"aggregate_speedup"`
}

func main() {
	var (
		quick   = flag.Bool("quick", false, "small budgets and an app subset, for CI smoke runs")
		outDir  = flag.String("out", ".", "directory for BENCH_*.json files")
		budget  = flag.Uint64("budget", 0, "application instruction budget per run (0: 130M, or 20M with -quick)")
		appsArg = flag.String("apps", "", "comma-separated workload subset (default: the paper's seven, or three with -quick)")
		reps    = flag.Int("reps", 3, "repetitions per configuration; the fastest is reported")
		obsAB   = flag.Bool("obs", false, "measure observability overhead instead: batched engine with obs off vs on")
		truthAB = flag.Bool("truth", false, "measure the sharded ground-truth engine instead: sequential vs set-sharded across a worker sweep")
		minSpd  = flag.Float64("min-speedup", 0, "with -truth or -intervals: exit nonzero unless the aggregate speedup reaches this floor (CI gate)")
		intAB   = flag.Bool("intervals", false, "measure the representative-interval engine instead: full-run ground truth vs interval extrapolation, with accuracy reported per app")
		maxErr  = flag.Float64("max-rel-err", 0, "with -intervals: exit nonzero if any app's max per-counter relative error exceeds this percentage (CI accuracy gate)")
		allocAB = flag.Bool("alloc", false, "measure steady-state heap allocations instead: one warmup leg, then a measured continuation leg reporting allocs and bytes")
		maxAll  = flag.Float64("max-steady-allocs", -1, "with -alloc: exit nonzero if any configuration's steady-state leg exceeds this many heap allocations (CI gate; 0 demands an allocation-free steady state)")
		storeAB = flag.Bool("store", false, "measure the persistent result store instead: Table 1 cells with the store off, cold, and warm, with byte-identical outputs enforced")
		stDir   = flag.String("store-dir", "", "with -store: result-store directory (default: a fresh temp dir, removed afterwards)")
		stClear = flag.Bool("store-clear", false, "with -store: clear the store directory before benchmarking")
		stMax   = flag.Int64("store-max-bytes", 0, "with -store: store size cap in bytes (0 = default, negative = unlimited)")
		vetAB   = flag.Bool("vet", false, "measure mbvet wall time instead: whole-repo load, type-check, and analysis; report-only")
	)
	flag.Parse()

	apps := []string{"tomcatv", "swim", "su2cor", "mgrid", "applu", "compress", "ijpeg"}
	if *quick {
		apps = []string{"tomcatv", "mgrid", "compress"}
	}
	if *appsArg != "" {
		apps = strings.Split(*appsArg, ",")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	b := *budget
	if b == 0 {
		b = 130_000_000
		if *quick {
			b = 20_000_000
		}
	}

	if *obsAB {
		runObsBench(apps, b, *reps, *outDir)
		return
	}
	if *truthAB {
		runTruthBench(apps, b, *reps, *outDir, *minSpd)
		return
	}
	if *intAB {
		runIntervalBench(apps, b, *reps, *outDir, *minSpd, *maxErr)
		return
	}
	if *allocAB {
		runAllocBench(apps, b, *outDir, *maxAll)
		return
	}
	if *storeAB {
		runStoreBench(apps, b, *reps, *outDir, *minSpd, *stDir, *stClear, *stMax)
		return
	}
	if *vetAB {
		runVetBench(*reps, *outDir)
		return
	}

	for _, w := range []struct {
		name string
		run  func(app string, scalar bool) (uint64, error)
	}{
		{"table1", func(app string, scalar bool) (uint64, error) { return runPlain(app, scalar, b) }},
		{"figure3", func(app string, scalar bool) (uint64, error) { return runSampled(app, scalar, b) }},
		{"replay", makeReplayRunner(apps, b)},
	} {
		file := File{Workload: w.name, Budget: b}
		for _, app := range apps {
			pair, err := measurePair(w.name, app, *reps, [2]string{"scalar", "batched"}, w.run)
			if err != nil {
				fatal(err)
			}
			file.Results = append(file.Results, pair...)
		}
		var scalarNs, batchedNs int64
		for _, r := range file.Results {
			if r.Mode == "scalar" {
				scalarNs += r.WallNs
			} else {
				batchedNs += r.WallNs
			}
		}
		file.AggregateSpeedup = float64(scalarNs) / float64(batchedNs)
		fmt.Printf("%-8s aggregate: scalar %v, batched %v, speedup %.2fx\n",
			w.name, time.Duration(scalarNs), time.Duration(batchedNs), file.AggregateSpeedup)
		path := filepath.Join(*outDir, "BENCH_"+w.name+".json")
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
}

// measurePair runs one configuration in both modes and cross-checks
// them; run receives true for modes[0].
func measurePair(workload, app string, reps int, modeNames [2]string, run func(app string, first bool) (uint64, error)) ([]Result, error) {
	return measureModes(workload, app, reps, modeNames[:], func(app, mode string) (uint64, error) {
		return run(app, mode == modeNames[0])
	})
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
	if reps < 1 {
		reps = 1
	}
	refsSeen := make([]uint64, len(modes))
	wallNs := make([]int64, len(modes))
	allocs := make([]uint64, len(modes))
	bytes := make([]uint64, len(modes))
	for rep := 0; rep < reps; rep++ {
		for mi, mode := range modes {
			var repRefs uint64
			var err error
			repNs, repAllocs, repBytes := measure(func() {
				repRefs, err = run(app, mode)
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s (%s): %w", workload, app, mode, err)
			}
			if rep > 0 && repRefs != refsSeen[mi] {
				return nil, fmt.Errorf("%s/%s (%s): repetitions issued %d then %d refs — run is nondeterministic",
					workload, app, mode, refsSeen[mi], repRefs)
			}
			if rep == 0 || repNs < wallNs[mi] {
				wallNs[mi], allocs[mi], bytes[mi] = repNs, repAllocs, repBytes
			}
			refsSeen[mi] = repRefs
		}
	}
	out := make([]Result, 0, len(modes))
	for mi, mode := range modes {
		out = append(out, Result{
			Workload: workload, App: app, Mode: mode,
			Refs: refsSeen[mi], WallNs: wallNs[mi], Allocs: allocs[mi], Bytes: bytes[mi],
			NsPerRef:   float64(wallNs[mi]) / float64(refsSeen[mi]),
			RefsPerSec: float64(refsSeen[mi]) / (float64(wallNs[mi]) / 1e9),
		})
	}
	line := fmt.Sprintf("%-8s %-9s %12d refs", workload, app, out[0].Refs)
	for mi := range out {
		if out[mi].Refs != out[0].Refs {
			return nil, fmt.Errorf("%s/%s: %s issued %d refs, %s %d — runs diverged",
				workload, app, modes[0], out[0].Refs, modes[mi], out[mi].Refs)
		}
		line += fmt.Sprintf("  %s %6.2f ns/ref", modes[mi], out[mi].NsPerRef)
		if mi > 0 {
			out[mi].SpeedupVsScalar = float64(out[0].WallNs) / float64(out[mi].WallNs)
		}
	}
	fmt.Printf("%s  ratio %.2fx\n", line, float64(out[0].WallNs)/float64(out[len(out)-1].WallNs))
	return out, nil
}

// runTruthBench is the -truth mode: the same uninstrumented ground-truth
// runs as the table1 family, A/B-ing the sequential engine against the
// set-sharded parallel engine across a worker sweep (1, 2, 4, NumCPU).
// All modes issue identical reference streams and produce bit-identical
// truth (the shard differential tests enforce it), so the only variable
// is wall-clock time. The aggregate speedup compares the sequential
// total against the widest worker count; -min-speedup turns it into a
// CI gate.
func runTruthBench(apps []string, budget uint64, reps int, outDir string, minSpeedup float64) {
	workerSweep := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		workerSweep = append(workerSweep, n)
	}
	modes := []string{"seq"}
	workersOf := map[string]int{}
	for _, w := range workerSweep {
		mode := fmt.Sprintf("shard-w%d", w)
		modes = append(modes, mode)
		workersOf[mode] = w
	}
	run := func(app, mode string) (uint64, error) {
		if mode == "seq" {
			return runPlain(app, false, budget)
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

	file := File{Workload: "truth", Budget: budget}
	totals := make(map[string]int64)
	for _, app := range apps {
		rs, err := measureModes("truth", app, reps, modes, run)
		if err != nil {
			fatal(err)
		}
		for _, r := range rs {
			totals[r.Mode] += r.WallNs
		}
		file.Results = append(file.Results, rs...)
	}
	widest := modes[len(modes)-1]
	file.AggregateSpeedup = float64(totals["seq"]) / float64(totals[widest])
	fmt.Printf("%-8s aggregate: seq %v, %s %v, speedup %.2fx (NumCPU=%d)\n",
		"truth", time.Duration(totals["seq"]), widest, time.Duration(totals[widest]),
		file.AggregateSpeedup, runtime.NumCPU())
	path := filepath.Join(outDir, "BENCH_truth.json")
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
	if minSpeedup > 0 && file.AggregateSpeedup < minSpeedup {
		fatal(fmt.Errorf("aggregate truth speedup %.2fx below the %.2fx floor (%s vs seq)",
			file.AggregateSpeedup, minSpeedup, widest))
	}
}

// runIntervalBench is the -intervals mode: the A side is the experiments
// layer's full-run ground-truth path (the set-sharded engine, the same
// runs Table 1's "Actual" column comes from), the B side is the
// representative-interval engine extrapolating from cluster
// representatives only. Both sides replay the identical reference stream
// (measureModes' refs tripwire enforces it), but the interval side's
// truth tables are estimates: each app's worst per-counter relative
// error against the exact tables is reported next to its speedup, and
// -min-speedup / -max-rel-err turn the aggregate speedup and the worst
// per-app error into CI gates — the speed is only worth having while the
// differential oracle stays satisfied.
func runIntervalBench(apps []string, budget uint64, reps int, outDir string, minSpeedup, maxRelErr float64) {
	oracle := map[string]*truth.Counter{}
	est := map[string]*truth.Counter{}
	run := func(app, mode string) (uint64, error) {
		w, err := membottle.NewWorkload(app)
		if err != nil {
			return 0, err
		}
		if mode == "full" {
			res, err := shard.Run(nil, w, budget, shard.Config{})
			if err != nil {
				return 0, err
			}
			oracle[app] = res.Truth
			return res.Stats.Accesses(), nil
		}
		res, err := interval.Run(nil, w, budget, interval.Config{})
		if err != nil {
			return 0, err
		}
		est[app] = res.Truth
		return res.Plan.TotalRefs, nil
	}

	file := File{Workload: "intervals", Budget: budget}
	var fullNs, intNs int64
	worstApp, worstErr := "", 0.0
	for _, app := range apps {
		rs, err := measureModes("intervals", app, reps, []string{"full", "intervals"}, run)
		if err != nil {
			fatal(err)
		}
		rep := interval.Compare(est[app], oracle[app], 0)
		rs[1].MaxRelErr = rep.MaxRel
		fmt.Printf("%-8s %-9s max rel err %.2f%% (total %.2f%%, mean %.2f%%)\n",
			"intervals", app, rep.MaxRel, rep.TotalRel, rep.MeanRel)
		if rep.MaxRel > worstErr {
			worstApp, worstErr = app, rep.MaxRel
		}
		fullNs += rs[0].WallNs
		intNs += rs[1].WallNs
		file.Results = append(file.Results, rs...)
	}
	file.AggregateSpeedup = float64(fullNs) / float64(intNs)
	fmt.Printf("%-8s aggregate: full %v, intervals %v, speedup %.2fx, worst err %.2f%% (%s)\n",
		"intervals", time.Duration(fullNs), time.Duration(intNs),
		file.AggregateSpeedup, worstErr, worstApp)
	path := filepath.Join(outDir, "BENCH_intervals.json")
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
	if minSpeedup > 0 && file.AggregateSpeedup < minSpeedup {
		fatal(fmt.Errorf("aggregate interval speedup %.2fx below the %.2fx floor (vs full-run truth)",
			file.AggregateSpeedup, minSpeedup))
	}
	if maxRelErr > 0 && worstErr > maxRelErr {
		fatal(fmt.Errorf("%s max relative counter error %.2f%% above the %.2f%% ceiling",
			worstApp, worstErr, maxRelErr))
	}
}

// runAllocBench is the -alloc mode: a steady-state allocation census
// rather than a timing race. Each configuration runs one warmup leg —
// first-touch work (hotbuf pool priming, lazy tables, capture buffers)
// is real but happens once per process — then a measured continuation
// leg of the same length, reporting heap allocations and bytes for the
// steady leg alone. The alloc-gate tests prove the per-call paths are
// allocation-free in isolation; this family proves the same end to end
// through System.Run, with interrupts landing mid-batch in the figure3
// configuration. -max-steady-allocs turns the census into a CI gate.
//
// The gate ceiling should be a small number, not literally zero: the
// census counts process-wide mallocs, and a GC cycle landing inside a
// multi-hundred-millisecond leg can contribute a handful of
// runtime-internal allocations that have nothing to do with the
// simulator (observed: one 16-byte alloc, dependent only on the heap
// history of earlier legs in the same process). The per-op
// AllocsPerRun gates in the alloc_gate_test suites are the strict-zero
// contract; this family catches per-reference or per-interrupt leaks,
// which would show up as thousands of allocations, not single digits.
func runAllocBench(apps []string, budget uint64, outDir string, maxSteady float64) {
	configs := []struct {
		name  string
		setup func(app string) (*membottle.System, error)
	}{
		{"table1", func(app string) (*membottle.System, error) {
			sys := newSystem(false, false)
			return sys, sys.LoadWorkloadByName(app)
		}},
		{"figure3", func(app string) (*membottle.System, error) {
			sys := newSystem(false, false)
			if err := sys.LoadWorkloadByName(app); err != nil {
				return nil, err
			}
			return sys, sys.Attach(membottle.NewSampler(membottle.SamplerConfig{Interval: 2_000}))
		}},
	}
	file := File{Workload: "alloc", Budget: budget}
	var worst Result
	for _, cfg := range configs {
		for _, app := range apps {
			sys, err := cfg.setup(app)
			if err != nil {
				fatal(err)
			}
			sys.Run(budget / 2) // warmup leg: absolute budgets make the second Run a continuation
			refsBefore := sys.Machine.Cache.Stats.Accesses()
			wall, mallocs, heapBytes := measure(func() { sys.Run(budget) })
			refs := sys.Machine.Cache.Stats.Accesses() - refsBefore
			r := Result{
				Workload: "alloc", App: app, Mode: cfg.name + "-steady",
				Refs: refs, WallNs: wall, Allocs: mallocs, Bytes: heapBytes,
				NsPerRef:   float64(wall) / float64(refs),
				RefsPerSec: float64(refs) / (float64(wall) / 1e9),
			}
			fmt.Printf("%-8s %-9s %-15s %12d refs  %6d allocs  %8d bytes\n",
				"alloc", app, r.Mode, r.Refs, r.Allocs, r.Bytes)
			if r.Allocs > worst.Allocs {
				worst = r
			}
			file.Results = append(file.Results, r)
		}
	}
	path := filepath.Join(outDir, "BENCH_alloc.json")
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
	fmt.Printf("%-8s worst steady leg: %s/%s, %d allocs, %d bytes\n",
		"alloc", worst.App, worst.Mode, worst.Allocs, worst.Bytes)
	if maxSteady >= 0 && float64(worst.Allocs) > maxSteady {
		fatal(fmt.Errorf("%s/%s steady-state leg made %d heap allocations, above the %.0f ceiling",
			worst.App, worst.Mode, worst.Allocs, maxSteady))
	}
}

// runStoreBench is the -store mode: the persistent result store's
// cold-vs-warm A/B. Each application's Table 1 cell runs three ways —
// store off (the no-store baseline), store cold (compute + persist), and
// store warm (served entirely from disk) — and all three rendered cells
// must be byte-identical: the store may only change where the numbers
// come from, never what they are. The warm leg must additionally record
// zero store misses and zero simulation runs (nothing recomputed), and
// -min-speedup turns the aggregate cold-over-warm wall-clock ratio into
// a CI gate. measureModes' refs tripwire cannot apply here (a warm leg
// simulates nothing), so this family carries its own cross-checks.
func runStoreBench(apps []string, budget uint64, reps int, outDir string, minSpeedup float64, dir string, clear bool, maxBytes int64) {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "mbbench-store-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	} else if clear {
		s, err := store.Open(dir, store.Options{MaxBytes: maxBytes})
		if err != nil {
			fatal(err)
		}
		if err := s.Clear(); err != nil {
			fatal(err)
		}
	}
	if reps < 1 {
		reps = 1
	}

	// legRun executes one app's Table 1 cell, optionally over the store,
	// and returns its rendered bytes plus the leg's obs snapshot source.
	legRun := func(app string, st *store.Store, o *obs.Obs) ([]byte, error) {
		res, err := experiments.Table1App(app, experiments.Options{
			Apps:   []string{app},
			Budget: budget,
			Obs:    o,
			Store:  st,
		})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := experiments.RenderTable1([]experiments.AppResult{res}).Render(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}

	// openLeg opens the shared directory with a fresh obs bundle, so each
	// leg's store hit/miss counts are its own.
	openLeg := func() (*store.Store, *obs.Obs) {
		o := obs.New(obs.Options{NoTrace: true})
		s, err := store.Open(dir, store.Options{MaxBytes: maxBytes, Obs: o})
		if err != nil {
			fatal(err)
		}
		return s, o
	}

	file := File{Workload: "store", Budget: budget}
	var offNs, coldNs, warmNs int64
	for _, app := range apps {
		var offOut, coldOut, warmOut []byte
		var offBest, coldBest, warmBest int64

		for rep := 0; rep < reps; rep++ {
			// Off leg: no store anywhere near the run.
			var err error
			var out []byte
			wall, _, _ := measure(func() { out, err = legRun(app, nil, nil) })
			if err != nil {
				fatal(fmt.Errorf("store/%s (off): %w", app, err))
			}
			if rep == 0 || wall < offBest {
				offBest = wall
			}
			offOut = out

			// Cold leg: an empty store is populated by the run. The store
			// is cleared outside the measured section so the leg times
			// compute + persist, not deletion.
			st, _ := openLeg()
			if err := st.Clear(); err != nil {
				fatal(err)
			}
			wall, _, _ = measure(func() { out, err = legRun(app, st, nil) })
			if err != nil {
				fatal(fmt.Errorf("store/%s (cold): %w", app, err))
			}
			if rep == 0 || wall < coldBest {
				coldBest = wall
			}
			coldOut = out

			// Warm leg: the cell the cold leg just persisted must be
			// served entirely from disk — zero misses, zero simulations.
			st, legObs := openLeg()
			wall, _, _ = measure(func() { out, err = legRun(app, st, legObs) })
			if err != nil {
				fatal(fmt.Errorf("store/%s (warm): %w", app, err))
			}
			if n := legObs.StoreMisses.Value(); n != 0 {
				fatal(fmt.Errorf("store/%s (warm): %d store misses, want 0 — the warm path recomputed", app, n))
			}
			if n := legObs.Runs.Value(); n != 0 {
				fatal(fmt.Errorf("store/%s (warm): %d simulation runs, want 0 — the warm path recomputed", app, n))
			}
			if rep == 0 || wall < warmBest {
				warmBest = wall
			}
			warmOut = out
		}

		if !bytes.Equal(offOut, coldOut) || !bytes.Equal(offOut, warmOut) {
			fatal(fmt.Errorf("store/%s: rendered cells differ across store off/cold/warm — the store changed the results", app))
		}
		offNs += offBest
		coldNs += coldBest
		warmNs += warmBest
		for _, r := range []Result{
			{Workload: "store", App: app, Mode: "store-off", WallNs: offBest},
			{Workload: "store", App: app, Mode: "store-cold", WallNs: coldBest},
			{Workload: "store", App: app, Mode: "store-warm", WallNs: warmBest,
				SpeedupVsScalar: float64(coldBest) / float64(warmBest)},
		} {
			file.Results = append(file.Results, r)
		}
		fmt.Printf("%-8s %-9s off %12v  cold %12v  warm %12v  warm speedup %.2fx\n",
			"store", app, time.Duration(offBest), time.Duration(coldBest), time.Duration(warmBest),
			float64(coldBest)/float64(warmBest))
	}
	file.AggregateSpeedup = float64(coldNs) / float64(warmNs)
	fmt.Printf("%-8s aggregate: off %v, cold %v, warm %v, warm speedup %.2fx\n",
		"store", time.Duration(offNs), time.Duration(coldNs), time.Duration(warmNs), file.AggregateSpeedup)
	path := filepath.Join(outDir, "BENCH_store.json")
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
	if minSpeedup > 0 && file.AggregateSpeedup < minSpeedup {
		fatal(fmt.Errorf("aggregate warm-vs-cold store speedup %.2fx below the %.2fx floor",
			file.AggregateSpeedup, minSpeedup))
	}
}

// runVetBench is the -vet mode: it times the full mbvet pipeline —
// whole-repository load, type-check, and the rule suite — and reports
// the fastest of reps repetitions. Report-only: static analysis rides every CI run, so
// its wall time is a budget worth watching, but no threshold gates it.
func runVetBench(reps int, outDir string) {
	var best time.Duration
	var pkgCount, findingCount int
	for i := 0; i < reps; i++ {
		start := time.Now()
		loader, err := analysis.NewLoader(".")
		if err != nil {
			fatal(err)
		}
		pkgs, err := loader.Load(filepath.Join(loader.ModuleRoot, "..."))
		if err != nil {
			fatal(err)
		}
		findings := analysis.AnalyzeAll(pkgs)
		elapsed := time.Since(start)
		if best == 0 || elapsed < best {
			best = elapsed
		}
		pkgCount, findingCount = len(pkgs), len(findings)
	}
	file := File{
		Workload: "vet",
		Results: []Result{{
			Workload: "vet",
			App:      "repo",
			Mode:     "mbvet",
			Refs:     uint64(pkgCount),
			WallNs:   best.Nanoseconds(),
		}},
	}
	fmt.Printf("vet      %d packages, %d findings, fastest of %d: %v\n",
		pkgCount, findingCount, reps, best)
	path := filepath.Join(outDir, "BENCH_vet.json")
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

// runObsBench is the -obs mode: both sides run the batched engine; the
// A side has no obs bundle attached, the B side records metrics and
// events. The interesting number is the ratio per family — table1 is the
// pure hot path (the per-batch nil check), figure3 adds the per-interrupt
// recording path. Ratios near 1.00x mean observability is free when off
// and cheap when on; README documents the measured cost.
func runObsBench(apps []string, budget uint64, reps int, outDir string) {
	for _, w := range []struct {
		name string
		run  func(app string, obsOff bool) (uint64, error)
	}{
		{"obs-table1", func(app string, obsOff bool) (uint64, error) { return runPlainObs(app, !obsOff, budget) }},
		{"obs-figure3", func(app string, obsOff bool) (uint64, error) { return runSampledObs(app, !obsOff, budget) }},
	} {
		file := File{Workload: w.name, Budget: budget}
		for _, app := range apps {
			pair, err := measurePair(w.name, app, reps, [2]string{"obs-off", "obs-on"}, w.run)
			if err != nil {
				fatal(err)
			}
			file.Results = append(file.Results, pair...)
		}
		var offNs, onNs int64
		for _, r := range file.Results {
			if r.Mode == "obs-off" {
				offNs += r.WallNs
			} else {
				onNs += r.WallNs
			}
		}
		file.AggregateSpeedup = float64(offNs) / float64(onNs)
		fmt.Printf("%-11s aggregate: obs-off %v, obs-on %v, obs-on cost %+.1f%%\n",
			w.name, time.Duration(offNs), time.Duration(onNs),
			100*(float64(onNs)/float64(offNs)-1))
		path := filepath.Join(outDir, "BENCH_"+w.name+".json")
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
}

// runPlainObs mirrors runPlain on the batched engine, optionally with a
// fresh obs bundle attached.
func runPlainObs(app string, withObs bool, budget uint64) (uint64, error) {
	cfg := membottle.DefaultConfig()
	if withObs {
		cfg.Obs = membottle.NewObs(membottle.ObsOptions{})
	}
	sys := membottle.NewSystem(cfg)
	if err := sys.LoadWorkloadByName(app); err != nil {
		return 0, err
	}
	sys.Run(budget)
	sys.FlushObs()
	return sys.Machine.Cache.Stats.Accesses(), nil
}

// runSampledObs mirrors runSampled: the miss sampler interrupts
// throughout, so the per-interrupt recording path is on the clock.
func runSampledObs(app string, withObs bool, budget uint64) (uint64, error) {
	cfg := membottle.DefaultConfig()
	if withObs {
		cfg.Obs = membottle.NewObs(membottle.ObsOptions{})
	}
	sys := membottle.NewSystem(cfg)
	if err := sys.LoadWorkloadByName(app); err != nil {
		return 0, err
	}
	if err := sys.Attach(membottle.NewSampler(membottle.SamplerConfig{Interval: 2_000})); err != nil {
		return 0, err
	}
	sys.Run(budget)
	sys.FlushObs()
	return sys.Machine.Cache.Stats.Accesses(), nil
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

func newSystem(scalar, skipTruth bool) *membottle.System {
	cfg := membottle.DefaultConfig()
	cfg.ScalarRefs = scalar
	cfg.SkipTruth = skipTruth
	return membottle.NewSystem(cfg)
}

// runPlain is Table 1's "Actual" configuration: uninstrumented, exact
// ground truth attached.
func runPlain(app string, scalar bool, budget uint64) (uint64, error) {
	sys := newSystem(scalar, false)
	if err := sys.LoadWorkloadByName(app); err != nil {
		return 0, err
	}
	sys.Run(budget)
	return sys.Machine.Cache.Stats.Accesses(), nil
}

// runSampled is Figure 3's perturbation configuration: the miss-interrupt
// sampler fires throughout the run, so batches end at interrupt points.
func runSampled(app string, scalar bool, budget uint64) (uint64, error) {
	sys := newSystem(scalar, false)
	if err := sys.LoadWorkloadByName(app); err != nil {
		return 0, err
	}
	if err := sys.Attach(membottle.NewSampler(membottle.SamplerConfig{Interval: 2_000})); err != nil {
		return 0, err
	}
	sys.Run(budget)
	return sys.Machine.Cache.Stats.Accesses(), nil
}

// makeReplayRunner records one in-memory trace per app eagerly (recording
// runs on the scalar path by construction — the recorder observes every
// reference — and is setup cost, not measured time), then replays it
// through fresh caches in either engine. Replays cycle the trace until the
// instruction budget is spent.
func makeReplayRunner(apps []string, budget uint64) func(app string, scalar bool) (uint64, error) {
	// Bound the recorded prefix: Replay keeps the compiled trace in memory.
	recBudget := budget
	if recBudget > 8_000_000 {
		recBudget = 8_000_000
	}
	traces := map[string]*trace.Replay{}
	for _, app := range apps {
		w, err := membottle.NewWorkload(app)
		if err != nil {
			fatal(err)
		}
		rec := newSystem(true, true)
		rec.LoadWorkload(w)
		var buf bytes.Buffer
		if _, err := trace.Record(&buf, w, rec.Machine, recBudget); err != nil {
			fatal(err)
		}
		rp, err := trace.NewReplay(app, &buf)
		if err != nil {
			fatal(err)
		}
		traces[app] = rp
	}
	return func(app string, scalar bool) (uint64, error) {
		rp := traces[app]
		rp.Reset()
		sys := newSystem(scalar, true)
		sys.LoadWorkload(rp)
		sys.Run(budget)
		return sys.Machine.Cache.Stats.Accesses(), nil
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mbbench:", err)
	os.Exit(1)
}
