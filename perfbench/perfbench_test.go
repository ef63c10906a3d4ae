package main

import (
	"context"
	"testing"

	"membottle/internal/core"
)

// smallTable1 is a one-app Table 1 workload cheap enough for tests.
var smallTable1 = workload{name: "test-table1", kind: kindTable1, apps: []string{"mgrid"}, budget: 2_000_000, rep: "mgrid"}

// checkedPass runs one pass of j and checks it, as a measured run does.
func checkedPass(j job) passStats {
	ps := j.pass()
	j.check(&ps)
	return ps
}

// TestOracleMismatchCountsAsFailure shows the oracle check is live: a
// pass over correct code fails nothing, and once one oracle cell is
// altered the same pass fails exactly that cell, so error_rate rises.
func TestOracleMismatchCountsAsFailure(t *testing.T) {
	j, err := newSimJob(smallTable1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ps := checkedPass(j); ps.ops != 1 || ps.failed != 0 {
		t.Fatalf("clean pass: %d ops, %d failed; want 1 op, 0 failed", ps.ops, ps.failed)
	}
	j.table1[0].Rows[0].SearchPct += 0.1
	if ps := checkedPass(j); ps.failed != 1 {
		t.Fatalf("pass against an altered oracle cell failed %d ops, want 1", ps.failed)
	}
}

// TestStoreReadMismatchCountsAsFailure is the same check for the store
// workload's reads.
func TestStoreReadMismatchCountsAsFailure(t *testing.T) {
	w := workload{name: "test-store", kind: kindStore, apps: []string{"mgrid"}, budget: 1_000_000, rep: "mgrid"}
	j, err := newStoreMix(w, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	ps := checkedPass(j)
	if ps.failed != 0 || j.verify() != 0 {
		t.Fatalf("clean pass failed %d ops, verify %d", ps.failed, j.verify())
	}
	if len(j.getSecs) == 0 || len(j.putSecs) == 0 {
		t.Fatalf("pass made %d reads and %d writes; want both kinds", len(j.getSecs), len(j.putSecs))
	}
	cell := j.oracle["mgrid"]
	cell.SampleCount++
	j.oracle["mgrid"] = cell
	if ps := checkedPass(j); ps.failed != len(j.getSecs) {
		t.Fatalf("pass against an altered oracle cell failed %d ops, want its %d reads", ps.failed, len(j.getSecs))
	}
}

// TestNullProfilersMatchPlainReferences shows the subtractions compare
// like with like: runs under the null profilers simulate exactly the
// plain run's references and application instructions, while still
// taking interrupts.
func TestNullProfilersMatchPlainReferences(t *testing.T) {
	for _, app := range []string{"mgrid", "compress"} {
		run := func(p core.Profiler) (refs, insts, irqs uint64) {
			sys, err := newSystem(app, true)
			if err != nil {
				t.Fatal(err)
			}
			if p != nil {
				if err := sys.Attach(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := sys.RunContext(context.Background(), 20_000_000); err != nil {
				t.Fatal(err)
			}
			return sys.Machine.Cache.Stats.Accesses(), sys.Machine.AppInsts, sys.Machine.Interrupts
		}
		refs, insts, _ := run(nil)
		for name, p := range map[string]core.Profiler{"timer": nullTimer{}, "miss": nullMiss{interval: 200}} {
			r, i, irqs := run(p)
			if r != refs || i != insts {
				t.Errorf("%s: null %s profiler ran %d refs, %d insts; plain ran %d refs, %d insts", app, name, r, i, refs, insts)
			}
			if irqs == 0 {
				t.Errorf("%s: null %s profiler took no interrupts", app, name)
			}
		}
	}
}

// TestTraceChecks shows the traced run fails when a stacked self time is
// negative beyond noise or the layers do not add up to the top operation.
func TestTraceChecks(t *testing.T) {
	consistent := map[string][]float64{
		"gen": {0.1}, "cache": {0.2}, "plain": {0.3}, "truth": {0.4},
		"nulltimer": {0.6}, "search": {0.7}, "nullmiss": {0.5}, "sampler": {0.6},
		"shard": {0.2}, "cell": {1.5},
	}
	check := func(s map[string][]float64) bool {
		tr := &tracer{w: smallTable1, s: s, counts: map[string]float64{}}
		return tr.result().Correct
	}
	with := func(name string, xs ...float64) map[string][]float64 {
		s := map[string][]float64{}
		for k, v := range consistent {
			s[k] = v
		}
		s[name] = xs
		return s
	}
	if !check(consistent) {
		t.Fatal("consistent stacks failed the checks")
	}
	if check(with("plain", 0.1)) {
		t.Error("a negative dispatch self time passed")
	}
	if check(with("cell", 3)) {
		t.Error("layers covering half the top operation passed")
	}
	// truth.attr_s reads -0.125 s: beyond 25% of the truth stack plus
	// 2 ms, but within the truth rounds' interquartile range of 0.275 s.
	noisy := with("truth", 0.2, 0.25, 0.5, 0.55)
	noisy["plain"] = []float64{0.5}
	if !check(noisy) {
		t.Error("a negative self time within the rounds' spread failed")
	}
}

// TestInputMedian shows a run's figure weighs every input alike however
// many passes each input got.
func TestInputMedian(t *testing.T) {
	xs := []float64{1, 1, 1, 1, 5, 9}
	inputs := []int{0, 0, 0, 0, 1, 2}
	if got := inputMedian(xs, inputs); got != 5 {
		t.Fatalf("inputMedian = %g, want 5 (the median of per-input medians 1, 5, 9)", got)
	}
}
