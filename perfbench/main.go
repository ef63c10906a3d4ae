// Command perfbench is membottle's benchmark: it runs one named workload
// for a fixed host time, checks every result against the exact engines,
// and prints the end-to-end metrics (tracing off) or the per-layer
// metrics (tracing on) as one JSON object on its last line of output.
//
//	bash perfbench/run.sh --workload table1-dense --seed 1 --seconds 20 --trace 0
//
// The benchmark touches no simulator code. Per-layer numbers come from
// timing calls into each module's public functions from outside the
// program; see trace.go and README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// setupReps is how many times the untraced run builds its workload, so
// setup_s is a median rather than one noisy sample.
const setupReps = 3

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (table1-dense, table1-sparse, interval-report, store-mixed)")
		seed    = flag.Int64("seed", 1, "seed for the workload's inputs")
		seconds = flag.Float64("seconds", 20, "host seconds to measure for")
		trace   = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
		scratch = flag.String("scratch", ".bench_build", "directory for the store-mixed workload's scratch stores")
	)
	flag.Parse()
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(workers())
	dur := time.Duration(*seconds * float64(time.Second))

	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed, dur, *scratch)
	} else {
		res, err = runUntraced(w, *seed, dur, *scratch)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// workers is the simulation parallelism inside one cell: GOMAXPROCS, the
// truth worker count and the shard and interval engines' workers all use
// it. It is capped at two so runs on
// larger hosts stay comparable with the two-CPU machine the bounds were
// fixed on.
func workers() int {
	return min(2, runtime.NumCPU())
}

// runUntraced sets the workload up setupReps times, measures whole cycles
// of passes over it until d has elapsed, and reports the end-to-end
// metrics.
func runUntraced(w workload, seed int64, d time.Duration, scratch string) (result, error) {
	// Every set-up is kept until the run ends, so deleting one (for the
	// store workload, thousands of files) never overlaps a timed section.
	var setups []float64
	var j job
	for i := 0; i < setupReps; i++ {
		var err error
		secs := timed(func() { j, err = w.setup(seed, scratch) })
		if err != nil {
			return result{}, err
		}
		defer func(j job) {
			if err := j.close(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
			}
		}(j)
		setups = append(setups, secs)
	}

	// Set-up leaves the oracle engines' memory behind; return what it
	// freed and restart the high-water mark so peak_rss_mb measures the
	// measured section.
	debug.FreeOSMemory()
	resetPeakRSS()

	var (
		passSecs, opSecs []float64
		cpuSecs          []float64
		errPPs           []float64
		inputs           []int
		ops, failed      int
		refs             float64
	)
	cycle := j.inputs()
	start := time.Now()
	for len(passSecs) == 0 || time.Since(start) < d || len(passSecs)%cycle != 0 {
		var ps passStats
		cpu0 := cpuSeconds()
		passSecs = append(passSecs, timed(func() { ps = j.pass() }))
		cpuSecs = append(cpuSecs, cpuSeconds()-cpu0)
		j.check(&ps)
		ops += ps.ops
		failed += ps.failed
		refs += ps.refs
		errPPs = append(errPPs, ps.errPP)
		inputs = append(inputs, ps.input)
		opSecs = append(opSecs, ps.opSecs...)
	}
	measured := time.Since(start).Seconds()
	failed += j.verify()

	wall := inputMedian(passSecs, inputs)
	passes := float64(len(passSecs))
	ms := make([]float64, len(opSecs))
	for i, s := range opSecs {
		ms[i] = 1000 * s
	}
	res := result{
		Correct:   failed == 0,
		Attempted: ops,
		Failed:    failed,
		Metrics: map[string]metric{
			"wall_s":          {wall, "s"},
			"setup_s":         {median(setups), "s"},
			"cpu_s":           {inputMedian(cpuSecs, inputs), "s"},
			"sim_mrefs_per_s": {refs / passes / wall / 1e6, "Mref/s"},
			"peak_rss_mb":     {peakRSSMB(), "MB"},
			"ops_per_s":       {float64(ops) / passes / wall, "1/s"},
			"op_ms_p50":       {median(ms), "ms"},
			"op_ms_p90":       {nearestRank(ms, 90), "ms"},
			"est_err_pp":      {inputMedian(errPPs, inputs), "pp"},
		},
	}
	fmt.Printf("workload %s seed %d: %d passes in %.1fs, %d operations (%d latency samples), %d failed, error_rate %g ratio\n",
		w.name, seed, len(passSecs), measured, ops, len(ms), failed, float64(failed)/float64(max(ops, 1)))
	for _, line := range j.details() {
		fmt.Println(line)
	}
	return res, nil
}
