// Package alloctest is the shared harness for the repo's
// allocation-gate tests: each engine declares its steady-state hot
// paths as Cases with a 0 allocs/op budget, and Gate measures them with
// testing.AllocsPerRun, failing with a full budget table so a
// regression names every path at once instead of the first one hit.
//
// The gates are the one enforcement of the zero-allocation steady
// state: they measure what the compiled code actually does, so escape-
// analysis changes, stdlib behavior, and interface boxing introduced
// through any number of layers all show up. CI runs them under GOGC=1.
package alloctest

import (
	"fmt"
	"strings"
	"testing"
)

// Case is one gated steady-state path.
type Case struct {
	// Name identifies the path in the budget table (e.g.
	// "cache.AccessBatch/hits").
	Name string
	// Budget is the allowed allocations per op; the steady-state
	// contract is 0. A non-zero budget must say why in the case name.
	Budget float64
	// Runs is the AllocsPerRun repetition count; 0 selects 100.
	Runs int
	// Warmup, if non-nil, runs once before measurement so one-time
	// growth (pool fills, lazy buffers, map sizing) is charged to the
	// cold path it belongs to. AllocsPerRun's own extra warmup
	// iteration is not enough when the op under test alternates states.
	Warmup func()
	// Op is the measured steady-state operation.
	Op func()
}

// Gate measures every case and fails with the full budget table when
// any case exceeds its budget. All cases are always measured, so one
// regression report shows the whole engine's allocation surface.
func Gate(t *testing.T, cases []Case) {
	t.Helper()
	type row struct {
		name   string
		got    float64
		budget float64
	}
	rows := make([]row, 0, len(cases))
	failed := false
	for _, c := range cases {
		runs := c.Runs
		if runs <= 0 {
			runs = 100
		}
		if c.Warmup != nil {
			c.Warmup()
		}
		got := testing.AllocsPerRun(runs, c.Op)
		rows = append(rows, row{name: c.Name, got: got, budget: c.Budget})
		if got > c.Budget {
			failed = true
		}
	}
	if !failed {
		return
	}
	var b strings.Builder
	b.WriteString("allocation budget exceeded; full table (allocs/op):\n")
	b.WriteString(fmt.Sprintf("  %-44s %12s %8s\n", "path", "measured", "budget"))
	for _, r := range rows {
		verdict := "ok"
		if r.got > r.budget {
			verdict = "FAIL"
		}
		b.WriteString(fmt.Sprintf("  %-44s %12.1f %8.0f  %s\n", r.name, r.got, r.budget, verdict))
	}
	t.Error(b.String())
}
