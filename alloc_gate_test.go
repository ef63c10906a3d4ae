package membottle_test

import (
	"testing"

	"membottle"
	"membottle/internal/alloctest"
)

// TestAllocGate pins System.Run's steady state at zero allocations per
// continuation leg, end to end: workload generation, the batched
// machine, cache, PMU and ground truth together, and — in the figure3
// configuration — miss interrupts landing mid-batch with the sampler's
// handler running. Each system first warms up to 4M instructions, so
// first-touch growth (pool fills, lazy tables) is charged to the cold
// path; every op then runs 200k further instructions (budgets are
// absolute, so a later Run continues the earlier one). The per-package
// gates pin each layer's hot path in isolation; this one catches a leak
// only their composition exhibits.
func TestAllocGate(t *testing.T) {
	const (
		warmup = 4_000_000
		leg    = 200_000
		runs   = 10
	)
	var cases []alloctest.Case
	var systems []*membottle.System
	for _, cfg := range []struct {
		name    string
		sampled bool
	}{{"table1", false}, {"figure3", true}} {
		for _, app := range []string{"tomcatv", "mgrid", "compress"} {
			sys := membottle.NewSystem(membottle.DefaultConfig())
			if err := sys.LoadWorkloadByName(app); err != nil {
				t.Fatal(err)
			}
			if cfg.sampled {
				if err := sys.Attach(membottle.NewSampler(membottle.SamplerConfig{Interval: 2_000})); err != nil {
					t.Fatal(err)
				}
			}
			budget := uint64(warmup)
			systems = append(systems, sys)
			cases = append(cases, alloctest.Case{
				Name:   "System.Run/" + cfg.name + "/" + app,
				Runs:   runs,
				Warmup: func() { sys.Run(budget) },
				Op: func() {
					budget += leg
					sys.Run(budget)
				},
			})
		}
	}
	alloctest.Gate(t, cases)

	// AllocsPerRun adds one unmeasured op before its runs.
	for i, sys := range systems {
		if want := uint64(warmup + (runs+1)*leg); sys.Machine.AppInsts < want {
			t.Errorf("%s: ran %d instructions, want at least %d", cases[i].Name, sys.Machine.AppInsts, want)
		}
	}
}
