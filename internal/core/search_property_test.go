package core

import (
	"math"
	"testing"

	"membottle/internal/machine"
	"membottle/internal/objmap"
)

// runSearchOn drives a search over the given workload and returns it.
func runSearchOn(t *testing.T, w machine.Workload, cfg SearchConfig, budget uint64) (*Search, *machine.Machine, *objmap.Map) {
	t.Helper()
	n := cfg.N
	if n == 0 {
		n = 10
	}
	m, om := rig(w, n)
	s := NewSearch(cfg)
	if err := s.Install(m, om); err != nil {
		t.Fatal(err)
	}
	m.Run(w, budget)
	return s, m, om
}

func stdWorkload() *sweeps {
	return &sweeps{
		names:   []string{"A", "B", "C", "D", "E"},
		weights: []int{5, 4, 3, 2, 1},
		size:    128 << 10,
	}
}

func TestSearchEstimatesSumBounded(t *testing.T) {
	s, _, _ := runSearchOn(t, stdWorkload(), SearchConfig{N: 10, Interval: 5_000_000}, 40_000_000)
	sum := 0.0
	for _, e := range s.Estimates() {
		if e.Pct < 0 {
			t.Fatalf("negative estimate: %+v", e)
		}
		sum += e.Pct
	}
	// Estimates are shares of total misses; measurement noise can push
	// the sum slightly over 100.
	if sum > 110 {
		t.Fatalf("estimates sum to %.1f%%", sum)
	}
}

func TestSearchRegionsDisjointWithinExtent(t *testing.T) {
	w := stdWorkload()
	s, m, _ := runSearchOn(t, w, SearchConfig{N: 10, Interval: 5_000_000}, 40_000_000)
	lo, hi := m.Space.Extent()
	found := s.Found()
	for i, r := range found {
		if r.Lo < lo || r.Hi > hi {
			t.Errorf("region %d [%#x,%#x) outside extent [%#x,%#x)", i, uint64(r.Lo), uint64(r.Hi), uint64(lo), uint64(hi))
		}
		if r.Obj == nil {
			t.Errorf("found region %d has no object", i)
		}
		for j := i + 1; j < len(found); j++ {
			if r.Obj == found[j].Obj {
				t.Errorf("object %v reported twice", r.Obj)
			}
		}
	}
}

func TestSearchDeterministic(t *testing.T) {
	run := func() []Estimate {
		s, _, _ := runSearchOn(t, stdWorkload(), SearchConfig{N: 10, Interval: 5_000_000}, 30_000_000)
		return s.Estimates()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs found %d vs %d objects", len(a), len(b))
	}
	for i := range a {
		if a[i].Object.Name != b[i].Object.Name || math.Abs(a[i].Pct-b[i].Pct) > 1e-9 {
			t.Fatalf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// computeOnly never touches memory: the search must survive an
// application with zero cache misses.
type computeOnly struct{}

func (computeOnly) Name() string              { return "computeonly" }
func (computeOnly) Setup(m *machine.Machine)  {}
func (c computeOnly) Step(m *machine.Machine) { m.Compute(10_000) }

func TestSearchZeroMissApplication(t *testing.T) {
	w := computeOnly{}
	m, om := rig(w, 10)
	s := NewSearch(SearchConfig{N: 10, Interval: 100_000})
	if err := s.Install(m, om); err != nil {
		t.Fatal(err)
	}
	m.Run(w, 5_000_000) // must not panic or spin
	if es := s.Estimates(); len(es) != 0 {
		t.Fatalf("estimates from a zero-miss run: %v", es)
	}
}

func TestSearchMaxIterationsTerminates(t *testing.T) {
	w := stdWorkload()
	m, om := rig(w, 2)
	s := NewSearch(SearchConfig{N: 2, Interval: 200_000})
	s.maxIterations, s.finalPasses = 2, 1
	if err := s.Install(m, om); err != nil {
		t.Fatal(err)
	}
	m.Run(w, 30_000_000)
	if !s.Done() {
		t.Fatal("search did not stop at maxIterations")
	}
	if s.Iterations() > 2+1+1 { // 2 search + up to finalize steps
		t.Fatalf("ran %d iterations", s.Iterations())
	}
}

func TestSearchIntervalGrowthCapped(t *testing.T) {
	// A phased workload that goes quiet retains regions and stretches the
	// interval, but never past maxIntervalFactor times the initial value.
	w := &phased{
		sweeps:   sweeps{names: []string{"A", "B", "C"}, weights: []int{1, 1, 1}, size: 128 << 10},
		phaseLen: 2,
	}
	cfg := SearchConfig{N: 4, Interval: 100_000}
	m, om := rig(w, 4)
	s := NewSearch(cfg)
	s.maxIntervalFactor = 8
	if err := s.Install(m, om); err != nil {
		t.Fatal(err)
	}
	m.Run(w, 40_000_000)
	// The finalize phase legitimately uses Interval*searchFinalIntervalFactor;
	// before that, growth must respect the cap. Since we cannot observe
	// mid-run here, assert the final interval is within the larger of the
	// two bounds.
	bound := cfg.Interval * searchFinalIntervalFactor
	if cap := cfg.Interval * s.maxIntervalFactor; cap > bound {
		bound = cap
	}
	if s.Interval() > bound {
		t.Fatalf("interval %d exceeds both caps (%d)", s.Interval(), bound)
	}
}

// TestSearchRejectsTooFewCounters: with fewer than two counters the
// search cannot split a region, so Install must refuse rather than report
// a one-iteration "convergence" that finds nothing.
func TestSearchRejectsTooFewCounters(t *testing.T) {
	for _, n := range []int{1, -3} {
		m, om := rig(stdWorkload(), 10)
		s := NewSearch(SearchConfig{N: n})
		if err := s.Install(m, om); err == nil {
			t.Errorf("N=%d: Install succeeded", n)
		}
		if lo, hi := m.Space.ShadowExtent(); m.TimerHandler != nil || hi != lo {
			t.Errorf("N=%d: Install changed the machine before failing", n)
		}
	}
}

func TestSearchSingleObjectWorkload(t *testing.T) {
	// Degenerate: one giant array. The search should terminate at once
	// with that object at ~100%.
	w := &sweeps{names: []string{"ONLY"}, weights: []int{1}, size: 512 << 10}
	s, _, _ := runSearchOn(t, w, SearchConfig{N: 10, Interval: 2_000_000}, 20_000_000)
	es := s.Estimates()
	if len(es) != 1 || es[0].Object.Name != "ONLY" {
		t.Fatalf("estimates = %v", es)
	}
	if es[0].Pct < 90 {
		t.Fatalf("single object at %.1f%%", es[0].Pct)
	}
}

func TestGreedyDeterministicAndDone(t *testing.T) {
	s, _, _ := runSearchOn(t, figure2(), SearchConfig{N: 2, Interval: 5_000_000, Greedy: true}, 60_000_000)
	if !s.Done() {
		t.Fatal("greedy search never terminated")
	}
	if len(s.Estimates()) == 0 {
		t.Fatal("greedy search reported nothing")
	}
}

func TestSearchFewCountersAsConfigured(t *testing.T) {
	// N smaller than the PMU's capacity is fine; N larger is rejected at
	// install (covered elsewhere). Verify N=3 works end to end.
	s, _, _ := runSearchOn(t, stdWorkload(), SearchConfig{N: 3, Interval: 5_000_000}, 60_000_000)
	es := s.Estimates()
	if len(es) == 0 {
		t.Fatal("3-way search found nothing")
	}
	if es[0].Object.Name != "A" {
		t.Fatalf("3-way top = %s, want A", es[0].Object.Name)
	}
}

// TestSearchRetirementFindsMoreObjects verifies the conclusion's proposed
// improvement: with RetireFound, a search with few counters keeps freeing
// counters after fully examining the hottest objects and therefore reports
// more objects than the n-1 limit.
func TestSearchRetirementFindsMoreObjects(t *testing.T) {
	many := &sweeps{
		names:   []string{"G0", "G1", "G2", "G3", "G4", "G5", "G6", "G7", "G8", "G9"},
		weights: []int{10, 9, 8, 7, 6, 5, 4, 3, 2, 1},
		size:    128 << 10,
	}
	base := SearchConfig{N: 4, Interval: 5_000_000}
	plain, _, _ := runSearchOn(t, many, base, 120_000_000)

	many2 := &sweeps{names: many.names, weights: many.weights, size: many.size}
	retire := base
	retire.RetireFound = true
	ret, _, _ := runSearchOn(t, many2, retire, 120_000_000)

	nPlain, nRet := len(plain.Estimates()), len(ret.Estimates())
	t.Logf("plain found %d objects, retirement found %d", nPlain, nRet)
	if nRet <= nPlain {
		t.Errorf("retirement did not find more objects: %d vs %d", nRet, nPlain)
	}
	if nRet < 6 {
		t.Errorf("retirement found only %d of 10 objects", nRet)
	}
	// Quality: the hottest object is still ranked first and well-estimated.
	if es := ret.Estimates(); es[0].Object.Name != "G0" {
		t.Errorf("retirement top = %s, want G0", es[0].Object.Name)
	}
}

func TestSearchHistoryDisabledByDefault(t *testing.T) {
	s, _, _ := runSearchOn(t, stdWorkload(), SearchConfig{N: 4, Interval: 5_000_000}, 20_000_000)
	if len(s.History()) != 0 {
		t.Fatalf("history recorded without RecordHistory: %d records", len(s.History()))
	}
}

func TestSearchHistoryRecordsIterations(t *testing.T) {
	s, _, _ := runSearchOn(t, stdWorkload(), SearchConfig{
		N: 4, Interval: 5_000_000, RecordHistory: true,
	}, 40_000_000)
	h := s.History()
	if len(h) == 0 {
		t.Fatal("no history recorded")
	}
	for i, rec := range h {
		if rec.Iteration <= 0 || (i > 0 && rec.Iteration <= h[i-1].Iteration) {
			t.Fatalf("iteration numbers not increasing: %+v", rec)
		}
		if len(rec.Regions) == 0 || len(rec.Regions) > 4 {
			t.Fatalf("iteration %d measured %d regions (n=4)", rec.Iteration, len(rec.Regions))
		}
	}
}
