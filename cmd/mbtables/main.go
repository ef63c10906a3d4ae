// Command mbtables regenerates the paper's tables:
//
//	mbtables -table 1              Table 1 (sampling vs search accuracy)
//	mbtables -table 2              Table 2 (2-way vs 10-way search)
//	mbtables -resonance            the §3.1 sampling-interval study
//	mbtables -table 1 -apps tomcatv,mgrid -csv
//	mbtables -table 1 -paper       paper-fidelity parameters (slow)
//	mbtables -table 1 -sanitize    cross-check the simulator while running
//	mbtables -table 1 -faults drop-miss=0.2,seed=7 -retries 2
//	mbtables -intervals            representative-interval error-bound report
//	mbtables -table 1 -intervals   Table 1, then the error-bound report
//
// -intervals prints the differential error-bound report: exact ground
// truth vs. the representative-interval engine's extrapolation, per app.
// It follows any table or study that was selected, and shares their
// exact baseline runs; ground truth in the tables is always exact.
//
// Failed application cells (panic, sanitizer violation, unrecovered
// injected faults) render as annotated gaps; the table is still printed,
// every cell error is listed on stderr, and the exit status is nonzero.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"membottle"
	"membottle/internal/experiments"
	"membottle/internal/obsio"
	"membottle/internal/report"
	"membottle/internal/storeio"
)

func main() {
	var (
		table     = flag.Int("table", 0, "table to regenerate: 1 or 2")
		resonance = flag.Bool("resonance", false, "run the §3.1 sampling resonance study")
		apps      = flag.String("apps", "", "comma-separated app subset (default: all seven)")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned text")
		paper     = flag.Bool("paper", false, "paper-fidelity parameters (1-in-50,000 sampling, 10x budgets)")
		seed      = flag.Int64("seed", 0, "seed for randomized components")
		budget    = flag.Uint64("budget", 0, "per-run application instruction budget (0: per-app default)")
		sanitize  = flag.Bool("sanitize", false, "enable the invariant sanitizer on every run (slower)")
		faults    = flag.String("faults", "", "fault-injection spec, e.g. drop-miss=0.1,apps=tomcatv,seed=7")
		retries   = flag.Int("retries", 0, "retries for cells that fail due to injected faults")
		intervals = flag.Bool("intervals", false, "print the representative-interval engine's error-bound report (after any selected table)")
	)
	obsFlags := obsio.Register(flag.CommandLine)
	storeFlags := storeio.Register(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opt := experiments.Options{
		Paper:    *paper,
		Seed:     *seed,
		Budget:   *budget,
		Sanitize: *sanitize,
		Retries:  *retries,
		Ctx:      ctx,
		// Baseline plain runs repeat across tables and studies within one
		// invocation; memoize them (results are deterministic and shared
		// read-only).
		TruthCache: experiments.NewTruthCache(),
	}
	if *apps != "" {
		opt.Apps = strings.Split(*apps, ",")
	}
	if o, err := obsFlags.Build(); err != nil {
		fatal(err)
	} else {
		opt.Obs = o
	}
	if s, err := storeFlags.Build(opt.Obs); err != nil {
		fatal(err)
	} else {
		opt.Store = s
	}
	if *faults != "" {
		fc, err := membottle.ParseFaults(*faults)
		if err != nil {
			fatal(err)
		}
		opt.Faults = fc
	}
	emit := func(t *report.Table) {
		if err := render(os.Stdout, t, *csv); err != nil {
			fatal(err)
		}
	}

	// reportCells lists every failed cell on stderr; the table has
	// already been rendered with annotated gaps. Returns whether any
	// cell failed.
	failed := false
	reportCells := func(err error) {
		if err == nil {
			return
		}
		failed = true
		cells := experiments.CellErrors(err)
		if len(cells) == 0 {
			fmt.Fprintln(os.Stderr, "mbtables:", err)
			return
		}
		for _, ce := range cells {
			fmt.Fprintln(os.Stderr, "mbtables: cell failed:", ce)
			if ce.Stack != nil {
				fmt.Fprintf(os.Stderr, "%s\n", ce.Stack)
			}
		}
	}

	ran := false
	switch *table {
	case 0:
		// fallthrough to resonance check
	case 1:
		rs, err := experiments.Table1(opt)
		if werr := writeTable1(os.Stdout, rs, *csv); werr != nil {
			fatal(werr)
		}
		reportCells(err)
		ran = true
	case 2:
		rs, err := experiments.Table2(opt)
		emit(experiments.RenderTable2(rs))
		reportCells(err)
		ran = true
	default:
		fatal(fmt.Errorf("unknown table %d (want 1 or 2)", *table))
	}

	if *resonance {
		r, err := experiments.Resonance(opt)
		if err != nil {
			fatal(err)
		}
		emit(experiments.RenderResonance(r))
		ran = true
	}

	if *intervals {
		rs, err := experiments.IntervalErrors(opt)
		emit(experiments.RenderIntervalErrors(rs))
		reportCells(err)
		ran = true
	}

	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	if err := obsFlags.Finish(opt.Obs, os.Stdout); err != nil {
		fatal(err)
	}
	if failed {
		os.Exit(1)
	}
}

// render writes t as aligned text or CSV, then a blank line.
func render(w io.Writer, t *report.Table, csv bool) error {
	var err error
	if csv {
		err = t.RenderCSV(w)
	} else {
		err = t.Render(w)
	}
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w)
	return err
}

// writeTable1 writes what -table 1 prints: the table, then one line per
// served application with its sample count and search iterations.
func writeTable1(w io.Writer, rs []experiments.AppResult, csv bool) error {
	if err := render(w, experiments.RenderTable1(rs), csv); err != nil {
		return err
	}
	for _, r := range rs {
		if r.Err != nil {
			continue
		}
		if _, err := fmt.Fprintf(w, "# %s: %d samples (interval %d), search %d iterations (converged=%v)\n",
			r.App, r.SampleCount, r.SampleInterval, r.SearchIterations, r.SearchConverged); err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mbtables:", err)
	os.Exit(1)
}
