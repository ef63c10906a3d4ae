package interval_test

import (
	"errors"
	"strings"
	"testing"

	"membottle/internal/capture"
	"membottle/internal/interval"
	"membottle/internal/machine"
	"membottle/internal/mem"
)

// stubWork is a minimal configurable workload for edge-case tests.
type stubWork struct {
	name       string
	setupRefs  bool // issue a load during Setup (precondition violation)
	allocAt    int  // Malloc on this step number (mid-run map mutation)
	computePer uint64
	steps      int
	base       mem.Addr
}

func (w *stubWork) Name() string { return w.name }

func (w *stubWork) Setup(m *machine.Machine) {
	w.base = m.MustMalloc(64 << 10)
	if w.setupRefs {
		m.Load(w.base)
	}
}

func (w *stubWork) Step(m *machine.Machine) {
	w.steps++
	if w.allocAt > 0 && w.steps == w.allocAt {
		m.MustMalloc(4096)
	}
	if w.computePer > 0 {
		m.Compute(w.computePer)
		return
	}
	m.LoadRange(w.base, 64<<10, 8, 0)
}

func TestNegativeConfigRejected(t *testing.T) {
	w := &stubWork{name: "stub"}
	if _, err := interval.Run(nil, w, 1000, interval.Config{IntervalRefs: -1}); err == nil {
		t.Error("negative IntervalRefs accepted")
	}
}

// TestSetupRefsFallback: a workload that touches memory during Setup is
// outside the static preconditions (the object map is not synchronized
// yet) and must demote to the exact engines, not silently drop the
// references from the plan.
func TestSetupRefsFallback(t *testing.T) {
	_, err := interval.Run(nil, &stubWork{name: "setup-refs", setupRefs: true}, 100_000, interval.Config{})
	if !errors.Is(err, capture.ErrFallback) {
		t.Fatalf("got %v, want ErrFallback", err)
	}
}

// TestMidRunAllocFallback: mutating the object map mid-run invalidates
// the frozen-resolver assumption; the engine must refuse to extrapolate.
func TestMidRunAllocFallback(t *testing.T) {
	_, err := interval.Run(nil, &stubWork{name: "mid-alloc", allocAt: 3}, 1_000_000, interval.Config{})
	if !errors.Is(err, capture.ErrFallback) {
		t.Fatalf("got %v, want ErrFallback", err)
	}
}

// TestNoReferences: a compute-only workload captures an empty stream;
// the run must complete with an empty plan and zero tables, not divide
// by zero or invent misses.
func TestNoReferences(t *testing.T) {
	res, err := interval.Run(nil, &stubWork{name: "compute-only", computePer: 1000}, 500_000, interval.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.TotalRefs != 0 || len(res.Plan.Spans) != 0 || len(res.Reps) != 0 {
		t.Errorf("empty stream produced a plan: %+v", res.Plan)
	}
	if res.Truth.Total != 0 || res.Stats.Misses != 0 {
		t.Errorf("empty stream produced misses: truth=%d stats=%+v", res.Truth.Total, res.Stats)
	}
	if res.AppInsts == 0 {
		t.Error("compute-only run charged no instructions")
	}
}

// TestZeroBudget: a zero instruction budget runs no steps at all.
func TestZeroBudget(t *testing.T) {
	res, err := interval.Run(nil, &stubWork{name: "zero-budget"}, 0, interval.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.TotalRefs != 0 || res.Truth.Total != 0 {
		t.Errorf("zero budget captured %d refs, %d misses", res.Plan.TotalRefs, res.Truth.Total)
	}
}

// TestTraceShorterThanInterval: an interval size beyond the whole trace
// degenerates to a single interval and a single cluster with weight 1 —
// which is an exact (if pointless) simulation of the full run.
func TestTraceShorterThanInterval(t *testing.T) {
	res := estimate(t, "mgrid", 2_000_000, interval.Config{IntervalRefs: 1 << 30})
	if len(res.Plan.Spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(res.Plan.Spans))
	}
	if len(res.Reps) != 1 || res.Plan.Weights[0] != 1 {
		t.Errorf("single-span plan has reps=%d weights=%v", len(res.Reps), res.Plan.Weights)
	}
	checkPlan(t, res, 0)
	// One interval, cold start, full replay: the estimate is exact.
	oracle, refs := exactTruth(t, "mgrid", 2_000_000)
	checkPlan(t, res, refs)
	if rep := interval.Compare(res.Truth, oracle, 0); rep.MaxRel != 0 {
		t.Errorf("single-interval estimate should be exact, max err %.2f%%", rep.MaxRel)
	}
}

// TestSingleCluster: one cluster means one representative scaled to the
// whole run; the plan must stay valid and the weights collapse to 1.
func TestSingleCluster(t *testing.T) {
	res := estimate(t, "mgrid", 8_000_000, interval.Config{Clusters: 1})
	checkPlan(t, res, 0)
	if len(res.Reps) != 1 {
		t.Fatalf("got %d representatives, want 1", len(res.Reps))
	}
	if res.Plan.Weights[0] != 1 {
		t.Errorf("single cluster weight %v, want 1", res.Plan.Weights[0])
	}
}

// TestWarmupNone: cold representatives must still satisfy the plan
// invariants, and — because every representative re-misses its working
// set from scratch — estimate at least as many misses as the warmed
// configuration.
func TestWarmupNone(t *testing.T) {
	warm := estimate(t, "tomcatv", 8_000_000, interval.Config{})
	cold := estimate(t, "tomcatv", 8_000_000, interval.Config{Warmup: interval.WarmupNone})
	checkPlan(t, cold, 0)
	if cold.Truth.Total < warm.Truth.Total {
		t.Errorf("cold-start estimate (%d) below warmed estimate (%d)", cold.Truth.Total, warm.Truth.Total)
	}
}

// TestFallbackErrorNamesWorkload: the fallback error must say which
// workload and why, so experiment logs are actionable.
func TestFallbackErrorNamesWorkload(t *testing.T) {
	_, err := interval.Run(nil, &stubWork{name: "chatty", setupRefs: true}, 100_000, interval.Config{})
	if err == nil || !strings.Contains(err.Error(), "chatty") {
		t.Errorf("fallback error %q does not name the workload", err)
	}
}
