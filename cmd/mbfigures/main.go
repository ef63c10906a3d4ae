// Command mbfigures regenerates the paper's figures as tables or CSV
// series suitable for plotting:
//
//	mbfigures -figure 2    greedy vs priority-queue search ablation
//	mbfigures -figure 3    increase in cache misses due to instrumentation
//	mbfigures -figure 4    instrumentation cost (% slowdown)
//	mbfigures -figure 5    applu cache misses over time (phases)
//	mbfigures -ablation alignment|phase|timeshare
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"membottle/internal/experiments"
	"membottle/internal/report"
)

func main() {
	var (
		figure      = flag.Int("figure", 0, "figure to regenerate: 1, 2, 3, 4, or 5")
		ablation    = flag.String("ablation", "", "design ablation: alignment | phase | timeshare | retire")
		sensitivity = flag.String("sensitivity", "", "parameter sensitivity sweep: search | sample")
		apps        = flag.String("apps", "", "comma-separated app subset for figures 3/4")
		app         = flag.String("app", "tomcatv", "application for the alignment/timeshare ablations")
		csv         = flag.Bool("csv", false, "emit CSV instead of aligned text")
		paper       = flag.Bool("paper", false, "paper-fidelity parameters (slow)")
	)
	flag.Parse()

	opt := experiments.Options{
		Paper: *paper,
		// Baseline plain runs repeat across the figures and ablations of
		// one invocation; memoize them.
		TruthCache: experiments.NewTruthCache(),
	}
	if *apps != "" {
		opt.Apps = strings.Split(*apps, ",")
	}

	emit := func(t *report.Table) {
		var err error
		if *csv {
			err = t.RenderCSV(os.Stdout)
		} else {
			err = t.Render(os.Stdout)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Println()
	}

	switch {
	case *figure == 1:
		r, err := experiments.Figure1(opt)
		if err != nil {
			fatal(err)
		}
		emit(experiments.RenderFigure1(r))
	case *figure == 2:
		r, err := experiments.Figure2(opt)
		if err != nil {
			fatal(err)
		}
		emit(experiments.RenderFigure2(r))
		fmt.Printf("# greedy found hottest (%s): %v; priority queue found it: %v\n",
			r.Hottest, r.GreedyFoundHottest, r.PQFoundHottest)
	case *figure == 3 || *figure == 4:
		rows, err := experiments.Perturbation(opt)
		if err != nil {
			fatal(err)
		}
		if *figure == 3 {
			emit(experiments.RenderFigure3(rows))
		} else {
			emit(experiments.RenderFigure4(rows))
		}
	case *figure == 5:
		r, err := experiments.Figure5(opt)
		if err != nil {
			fatal(err)
		}
		emit(experiments.RenderFigure5(r))
	case *ablation == "alignment":
		a, b, err := experiments.AblationAlignment(*app, opt)
		if err != nil {
			fatal(err)
		}
		emit(experiments.RenderAblation("Ablation: object-aligned vs naive region splitting ("+*app+")", a, b))
	case *ablation == "phase":
		a, b, err := experiments.AblationPhase(opt)
		if err != nil {
			fatal(err)
		}
		emit(experiments.RenderAblation("Ablation: phase handling (two-way search on su2cor)", a, b))
	case *ablation == "timeshare":
		a, b, err := experiments.AblationTimeshare(*app, 2, opt)
		if err != nil {
			fatal(err)
		}
		emit(experiments.RenderAblation("Ablation: dedicated vs timeshared counters ("+*app+")", a, b))
	case *ablation == "retire":
		a, b, err := experiments.AblationRetirement(opt)
		if err != nil {
			fatal(err)
		}
		emit(experiments.RenderAblation("Ablation: retiring found regions (four-way search on su2cor)", a, b))
	case *sensitivity == "search":
		rows, err := experiments.SearchIntervalSensitivity(*app, opt)
		if err != nil {
			fatal(err)
		}
		emit(experiments.RenderSensitivity("Sensitivity: search iteration length ("+*app+")", rows))
	case *sensitivity == "sample":
		rows, err := experiments.SampleIntervalSensitivity(*app, opt)
		if err != nil {
			fatal(err)
		}
		emit(experiments.RenderSensitivity("Sensitivity: sampling frequency ("+*app+")", rows))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mbfigures:", err)
	os.Exit(1)
}
