// Command membottle profiles one of the built-in workloads with either of
// the paper's techniques and prints the ranked data-structure miss report
// next to the simulator's ground truth.
//
// Usage:
//
//	membottle -app tomcatv -profiler search -n 10
//	membottle -app ijpeg -profiler sample -interval 2000 -mode prime
//	membottle -app swim -profiler sample -sanitize
//	membottle -app tomcatv -profiler sample -stop-cycles 50000000 -checkpoint run.mbcp
//	membottle -app tomcatv -profiler sample -resume run.mbcp
//	membottle -list
//
// The representative-interval engine's error-bound report for one
// application is `mbtables -intervals -apps <app>`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"membottle"
	"membottle/internal/obsio"
	"membottle/internal/report"
	"membottle/internal/storeio"
)

func main() {
	var (
		app        = flag.String("app", "tomcatv", "workload to profile (see -list)")
		profiler   = flag.String("profiler", "search", "technique: sample | search")
		budget     = flag.Uint64("budget", 130_000_000, "application instructions to simulate")
		interval   = flag.Uint64("interval", 2000, "sampling: misses between samples")
		mode       = flag.String("mode", "fixed", "sampling interval mode: fixed | prime | random")
		n          = flag.Int("n", 10, "search: number of region counters")
		searchIv   = flag.Uint64("search-interval", 8_000_000, "search: initial iteration length (cycles)")
		seed       = flag.Int64("seed", 0, "seed for randomized sampling intervals")
		list       = flag.Bool("list", false, "list available workloads and exit")
		sanitize   = flag.Bool("sanitize", false, "enable the invariant sanitizer (slower; cross-checks the simulation)")
		faultsSpec = flag.String("faults", "", "fault-injection spec, e.g. drop-miss=0.1,zero-counter=0.01,seed=7")
		ckptPath   = flag.String("checkpoint", "", "write a checkpoint to this file when the run stops")
		resumePath = flag.String("resume", "", "resume from a checkpoint written by -checkpoint")
		stopCycles = flag.Uint64("stop-cycles", 0, "stop cleanly at the first step boundary past this cycle count")
	)
	obsFlags := obsio.Register(flag.CommandLine)
	storeFlags := storeio.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(membottle.Workloads(), "\n"))
		return
	}

	cfg := membottle.DefaultConfig()
	cfg.Sanitize = *sanitize
	if o, err := obsFlags.Build(); err != nil {
		fatal(err)
	} else {
		cfg.Obs = o
	}
	// Single-run profiling has no memoizable baselines, but the store
	// flags still manage the directory (-store-clear works everywhere).
	if _, err := storeFlags.Build(cfg.Obs); err != nil {
		fatal(err)
	}
	if *faultsSpec != "" {
		fc, err := membottle.ParseFaults(*faultsSpec)
		if err != nil {
			fatal(err)
		}
		cfg.Faults = fc
	}
	sys := membottle.NewSystem(cfg)
	if err := sys.LoadWorkloadByName(*app); err != nil {
		fatal(err)
	}

	var prof membottle.Profiler
	switch *profiler {
	case "sample":
		var m membottle.IntervalMode
		switch *mode {
		case "fixed":
			m = membottle.IntervalFixed
		case "prime":
			m = membottle.IntervalPrime
		case "random":
			m = membottle.IntervalRandom
		default:
			fatal(fmt.Errorf("unknown interval mode %q", *mode))
		}
		prof = membottle.NewSampler(membottle.SamplerConfig{Interval: *interval, Mode: m, Seed: *seed})
	case "search":
		prof = membottle.NewSearch(membottle.SearchConfig{N: *n, Interval: *searchIv})
	default:
		fatal(fmt.Errorf("unknown profiler %q (want sample or search)", *profiler))
	}

	if err := sys.Attach(prof); err != nil {
		fatal(err)
	}

	if *resumePath != "" {
		f, err := os.Open(*resumePath)
		if err != nil {
			fatal(err)
		}
		err = sys.Restore(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("resume %s: %w", *resumePath, err))
		}
		fmt.Printf("resumed from %s at cycle %d\n", *resumePath, sys.Machine.Cycles)
	}
	sys.Machine.StopCycles = *stopCycles
	if obsFlags.Progress > 0 {
		sys.AttachProgress(os.Stderr, obsFlags.Progress, *budget)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := sys.RunContext(ctx, *budget); err != nil {
		var cancelled *membottle.CancelledError
		if errors.As(err, &cancelled) && cancelled.Clean {
			fmt.Printf("run stopped cleanly at cycle %d (%d app instructions): %v\n",
				cancelled.Cycles, cancelled.AppInsts, cancelled.Cause)
		} else {
			fatal(err)
		}
	}

	if *ckptPath != "" {
		f, err := os.Create(*ckptPath)
		if err != nil {
			fatal(err)
		}
		err = sys.Checkpoint(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(fmt.Errorf("checkpoint %s: %w", *ckptPath, err))
		}
		fmt.Printf("checkpoint written to %s at cycle %d\n", *ckptPath, sys.Machine.Cycles)
	}

	t := &report.Table{
		Title:   fmt.Sprintf("%s under %s", *app, *profiler),
		Headers: []string{"Object", "Estimated %", "Actual %", "Actual misses"},
	}
	es := prof.Estimates()
	seen := map[string]bool{}
	for _, e := range es {
		seen[e.Object.Name] = true
		t.AddRow(e.Object.Name, report.Pct(e.Pct), report.Pct(sys.Truth.Pct(e.Object.Name)),
			fmt.Sprintf("%d", sys.Truth.Misses(e.Object.Name)))
	}
	for _, r := range sys.Truth.Ranked() {
		if !seen[r.Object.Name] && r.Pct >= 0.01 {
			t.AddRow(r.Object.Name+" (missed)", "", report.Pct(r.Pct), fmt.Sprintf("%d", r.Misses))
		}
	}
	if err := t.Render(os.Stdout); err != nil {
		fatal(err)
	}

	ov := sys.Overhead()
	fmt.Printf("\ninstructions: %d  cycles: %d  misses: %d\n", ov.AppInstructions, ov.TotalCycles, ov.TotalMisses)
	fmt.Printf("interrupts: %d (%.1f per 1e9 cycles)  handler cycles: %d  slowdown: %.4f%%\n",
		ov.Interrupts, ov.InterruptsPerBillionCycles(), ov.HandlerCycles, ov.SlowdownPct())
	if s, ok := prof.(*membottle.Search); ok {
		fmt.Printf("search: %d iterations, converged=%v\n", s.Iterations(), s.Converged())
	}
	if s, ok := prof.(*membottle.Sampler); ok {
		fmt.Printf("sampling: %d samples at interval %d (%d matched an object)\n",
			s.Samples(), s.Interval(), s.Matched())
	}
	if *sanitize {
		boundaries, violations := sys.SanitizeReport()
		fmt.Printf("sanitizer: %d boundary checks, %d violations\n", boundaries, violations)
	}
	if st := sys.FaultStats(); st != nil {
		fmt.Printf("faults injected: %s\n", st)
	}
	sys.FlushObs()
	if err := obsFlags.Finish(cfg.Obs, os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "membottle:", err)
	os.Exit(1)
}
