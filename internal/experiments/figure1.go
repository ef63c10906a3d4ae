package experiments

import (
	"fmt"
	"strings"

	"membottle/internal/core"
	"membottle/internal/mem"
	"membottle/internal/report"
)

// Figure1Result is the search-progress trace of the paper's Figure 1
// ("Searching for a Memory Bottleneck"): per iteration, the regions under
// measurement and their shares, showing the two-way search halving its
// way down to the hottest object.
type Figure1Result struct {
	App     string
	N       int
	History []core.IterationRecord
	Found   []core.Estimate
	// Lo and Hi bound the searched address space, for rendering.
	Lo, Hi mem.Addr
}

// Figure1 reproduces the paper's Figure 1 as a concrete run: a two-way
// search over the Figure 2 layout, recording each iteration's regions.
func Figure1(opt Options) (Figure1Result, error) {
	opt = opt.withDefaults()
	const app = "figure2"
	sys := newSystem(opt, true)
	if err := sys.LoadWorkloadByName(app); err != nil {
		return Figure1Result{}, err
	}
	s := core.NewSearch(core.SearchConfig{N: 2, Interval: searchInterval, RecordHistory: true})
	if err := sys.Attach(s); err != nil {
		return Figure1Result{}, err
	}
	sys.Run(opt.budgetFor(app))

	lo, hi := sys.Machine.Space.Extent()
	return Figure1Result{
		App:     app,
		N:       2,
		History: s.History(),
		Found:   s.Estimates(),
		Lo:      lo,
		Hi:      hi,
	}, nil
}

// RenderFigure1 draws the per-iteration region layout as proportional
// ASCII bars over the address space, annotated with each region's share —
// the textual equivalent of the paper's Figure 1 diagram.
func RenderFigure1(r Figure1Result) *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Figure 1: %d-way search progress over %s's address space", r.N, r.App),
		Headers: []string{"Iteration", "Regions (position/width to scale)", "Shares"},
	}
	const width = 64
	span := float64(r.Hi - r.Lo)
	for _, rec := range r.History {
		var bar [width]byte
		for i := range bar {
			bar[i] = '.'
		}
		var shares []string
		for idx, reg := range rec.Regions {
			a := int(float64(reg.Lo-r.Lo) / span * width)
			b := int(float64(reg.Hi-r.Lo) / span * width)
			if b <= a {
				b = a + 1
			}
			if b > width {
				b = width
			}
			mark := byte('a' + idx%26)
			for i := a; i < b; i++ {
				bar[i] = mark
			}
			label := fmt.Sprintf("%c=%.1f%%", mark, reg.Pct)
			if reg.Object != "" {
				label += "(" + reg.Object + ")"
			}
			shares = append(shares, label)
		}
		t.AddRow(fmt.Sprintf("%d", rec.Iteration), string(bar[:]), strings.Join(shares, " "))
	}
	var found []string
	for _, e := range r.Found {
		found = append(found, fmt.Sprintf("%s %.1f%%", e.Object.Name, e.Pct))
	}
	t.AddRow("result", "", strings.Join(found, "  "))
	return t
}
