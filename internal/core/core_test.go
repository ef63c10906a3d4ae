package core

import (
	"math"
	"sort"
	"testing"

	"membottle/internal/cache"
	"membottle/internal/machine"
	"membottle/internal/mem"
	"membottle/internal/objmap"
	"membottle/internal/pmu"
)

// sweeps is a synthetic workload: named equal-size arrays streamed with
// integer weights, so array i's share of steady-state misses is
// weights[i]/sum(weights). With interleave set, the first two arrays are
// swept element-by-element together, producing strictly alternating misses
// (the tomcatv-style pattern behind the paper's §3.1 resonance).
type sweeps struct {
	names      []string
	weights    []int
	size       uint64
	interleave bool
	bases      []mem.Addr
	order      []int // stride-scheduled sweep order; one Step = one sweep
	pos        int
}

func (w *sweeps) Name() string { return "sweeps" }

func (w *sweeps) Setup(m *machine.Machine) {
	for _, n := range w.names {
		w.bases = append(w.bases, m.Space.MustDefineGlobal(n, w.size))
	}
	// Stride scheduling: spread each array's sweeps evenly through the
	// round so that any measurement window longer than a couple of sweeps
	// sees close to the steady-state mix.
	type slot struct {
		pos float64
		idx int
	}
	var slots []slot
	for i, wt := range w.weights {
		if w.interleave && i == 1 {
			continue // array 1 rides along with array 0
		}
		for j := 0; j < wt; j++ {
			slots = append(slots, slot{pos: (float64(j) + 0.5) / float64(wt), idx: i})
		}
	}
	sort.Slice(slots, func(a, b int) bool {
		if slots[a].pos != slots[b].pos {
			return slots[a].pos < slots[b].pos
		}
		return slots[a].idx < slots[b].idx
	})
	for _, s := range slots {
		w.order = append(w.order, s.idx)
	}
}

// Step performs one array sweep (or one paired sweep in interleave mode).
func (w *sweeps) Step(m *machine.Machine) {
	i := w.order[w.pos]
	w.pos = (w.pos + 1) % len(w.order)
	if w.interleave && i == 0 {
		for off := uint64(0); off < w.size; off += 8 {
			m.Load(w.bases[0] + mem.Addr(off))
			m.Load(w.bases[1] + mem.Addr(off))
		}
		return
	}
	m.LoadRange(w.bases[i], w.size, 8, 0)
}

// rig wires a machine + object map around a workload.
func rig(w machine.Workload, counters int) (*machine.Machine, *objmap.Map) {
	space := mem.NewSpace()
	c := cache.New(cache.Config{Size: 64 << 10, LineSize: 64, Assoc: 4})
	m := machine.New(space, c, pmu.New(counters), machine.DefaultCosts())
	om := objmap.New(space)
	om.BindSpace(space)
	w.Setup(m)
	om.SyncGlobals(space)
	return m, om
}

func pctOf(es []Estimate, name string) float64 {
	for _, e := range es {
		if e.Object.Name == name {
			return e.Pct
		}
	}
	return 0
}

func rankOf(es []Estimate, name string) int {
	for i, e := range es {
		if e.Object.Name == name {
			return i + 1
		}
	}
	return 0
}

// --- prime -----------------------------------------------------------

func TestNextPrime(t *testing.T) {
	cases := map[uint64]uint64{
		0: 2, 1: 2, 2: 2, 3: 3, 4: 5, 10: 11, 50_000: 50021,
		97: 97, 100: 101, 1000: 1009,
	}
	for n, want := range cases {
		if got := NextPrime(n); got != want {
			t.Errorf("NextPrime(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestIsPrime(t *testing.T) {
	primes := []uint64{2, 3, 5, 7, 50021, 50111, 104729}
	for _, p := range primes {
		if !isPrime(p) {
			t.Errorf("isPrime(%d) = false", p)
		}
	}
	composites := []uint64{0, 1, 4, 9, 50001, 104730}
	for _, c := range composites {
		if isPrime(c) {
			t.Errorf("isPrime(%d) = true", c)
		}
	}
}

// --- priority queue ---------------------------------------------------

func TestPQOrdering(t *testing.T) {
	var q regionPQ
	for _, pct := range []float64{5, 40, 15, 40, 1, 99} {
		q.Push(&Region{Lo: mem.Addr(uint64(pct)), lastPct: pct})
	}
	want := []float64{99, 40, 40, 15, 5, 1}
	for i, w := range want {
		r, _ := q.Pop()
		if r.lastPct != w {
			t.Fatalf("pop %d = %v, want %v", i, r.lastPct, w)
		}
	}
	if r, _ := q.Pop(); r != nil {
		t.Fatal("pop from empty queue returned a region")
	}
}

func TestPQTieBreakDeterministic(t *testing.T) {
	var q regionPQ
	q.Push(&Region{Lo: 200, lastPct: 10})
	q.Push(&Region{Lo: 100, lastPct: 10})
	r, _ := q.Pop()
	if r.Lo != 100 {
		t.Fatalf("tie broken wrong: popped Lo=%d", r.Lo)
	}
}

func TestPQTopKPeeks(t *testing.T) {
	var q regionPQ
	for i := 0; i < 10; i++ {
		q.Push(&Region{Lo: mem.Addr(i), lastPct: float64(i)})
	}
	top := q.TopK(3)
	if len(top) != 3 || top[0].lastPct != 9 || top[1].lastPct != 8 || top[2].lastPct != 7 {
		t.Fatalf("TopK(3) = %v", top)
	}
	if q.Len() != 10 {
		t.Fatal("TopK consumed elements")
	}
	if got := q.TopK(99); len(got) != 10 {
		t.Fatalf("TopK beyond length returned %d", len(got))
	}
}

func TestRegionScoreAveragesForSingles(t *testing.T) {
	r := &Region{Obj: &objmap.Object{}, lastPct: 0}
	r.record(10)
	r.record(20)
	if r.Score() != 15 {
		t.Fatalf("Score = %v, want 15", r.Score())
	}
	if r.AvgPct() != 15 {
		t.Fatalf("AvgPct = %v", r.AvgPct())
	}
	multi := &Region{lastPct: 30}
	if multi.Score() != 30 {
		t.Fatalf("multi Score = %v", multi.Score())
	}
}

// --- sampler ----------------------------------------------------------

func TestSamplerRanksObjects(t *testing.T) {
	w := &sweeps{
		names:   []string{"A", "B", "C", "D"},
		weights: []int{5, 3, 2, 1},
		size:    128 << 10,
	}
	m, om := rig(w, 0)
	s := NewSampler(SamplerConfig{Interval: 1000, Mode: IntervalRandom, Seed: 7})
	if err := s.Install(m, om); err != nil {
		t.Fatal(err)
	}
	m.Run(w, 20_000_000)

	es := s.Estimates()
	if len(es) < 4 {
		t.Fatalf("found %d objects, want 4: %v", len(es), es)
	}
	wantPct := map[string]float64{"A": 100 * 5.0 / 11, "B": 100 * 3.0 / 11, "C": 100 * 2.0 / 11, "D": 100 * 1.0 / 11}
	for name, want := range wantPct {
		got := pctOf(es, name)
		if math.Abs(got-want) > 5 {
			t.Errorf("%s: estimated %.1f%%, actual %.1f%% (err > 5)", name, got, want)
		}
	}
	if es[0].Object.Name != "A" {
		t.Errorf("top-ranked = %s, want A", es[0].Object.Name)
	}
	if rankOf(es, "D") != 4 {
		t.Errorf("D ranked %d, want 4", rankOf(es, "D"))
	}
	if s.Samples() == 0 || s.Matched() == 0 {
		t.Fatal("no samples taken")
	}
}

func TestSamplerDefaultsAndModes(t *testing.T) {
	w := &sweeps{names: []string{"A"}, weights: []int{1}, size: 128 << 10}
	m, om := rig(w, 0)
	s := NewSampler(SamplerConfig{Interval: 1000, Mode: IntervalPrime})
	if err := s.Install(m, om); err != nil {
		t.Fatal(err)
	}
	if s.Interval() != 1009 {
		t.Fatalf("prime-adjusted interval = %d, want 1009", s.Interval())
	}
	if s.Done() {
		t.Fatal("sampler claims to be done")
	}
	if err := s.Install(m, om); err == nil {
		t.Fatal("double install accepted")
	}
	if IntervalFixed.String() != "fixed" || IntervalPrime.String() != "prime" ||
		IntervalRandom.String() != "random" || IntervalMode(9).String() != "unknown" {
		t.Fatal("IntervalMode.String broken")
	}
}

func TestSamplerNoSamplesNoEstimates(t *testing.T) {
	w := &sweeps{names: []string{"A"}, weights: []int{1}, size: 128 << 10}
	m, om := rig(w, 0)
	s := NewSampler(SamplerConfig{Interval: 1 << 40})
	if err := s.Install(m, om); err != nil {
		t.Fatal(err)
	}
	m.Run(w, 100_000)
	if es := s.Estimates(); es != nil {
		t.Fatalf("estimates without samples: %v", es)
	}
}

func TestSamplerResonance(t *testing.T) {
	// Two interleaved arrays produce strictly alternating misses. An even
	// fixed interval stays phase-locked to one of them (the paper's
	// tomcatv RX/RY effect); randomized intervals break the lock.
	build := func(mode IntervalMode) (float64, float64) {
		w := &sweeps{
			names:      []string{"RX", "RY"},
			weights:    []int{1, 1},
			size:       256 << 10,
			interleave: true,
		}
		m, om := rig(w, 0)
		s := NewSampler(SamplerConfig{Interval: 1000, Mode: mode, Seed: 3})
		if err := s.Install(m, om); err != nil {
			t.Fatal(err)
		}
		m.Run(w, 12_000_000)
		es := s.Estimates()
		return pctOf(es, "RX"), pctOf(es, "RY")
	}

	fx, fy := build(IntervalFixed)
	rx, ry := build(IntervalRandom)
	skewFixed := math.Abs(fx - fy)
	skewRandom := math.Abs(rx - ry)
	t.Logf("fixed: RX=%.1f RY=%.1f (skew %.1f); random: RX=%.1f RY=%.1f (skew %.1f)",
		fx, fy, skewFixed, rx, ry, skewRandom)
	if skewRandom > 10 {
		t.Errorf("randomized interval still skewed by %.1f points", skewRandom)
	}
	if skewFixed < skewRandom {
		t.Errorf("fixed interval (%.1f) not more skewed than randomized (%.1f)", skewFixed, skewRandom)
	}
}

// --- search -----------------------------------------------------------

func searchRig(t *testing.T, w machine.Workload, cfg SearchConfig, budget uint64) (*Search, *machine.Machine) {
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
	return s, m
}

func TestSearchFindsAllObjects(t *testing.T) {
	w := &sweeps{
		names:   []string{"A", "B", "C", "D", "E"},
		weights: []int{5, 4, 3, 2, 1},
		size:    128 << 10,
	}
	s, _ := searchRig(t, w, SearchConfig{N: 10, Interval: 5_000_000}, 40_000_000)
	if !s.Done() {
		t.Fatalf("search not finished after budget (%d iterations)", s.Iterations())
	}
	es := s.Estimates()
	if len(es) < 5 {
		t.Fatalf("found %d objects, want 5: %+v", len(es), es)
	}
	wantOrder := []string{"A", "B", "C", "D", "E"}
	for i, name := range wantOrder {
		if es[i].Object.Name != name {
			t.Errorf("rank %d = %s, want %s (est %.1f%%)", i+1, es[i].Object.Name, name, es[i].Pct)
		}
	}
	total := 5 + 4 + 3 + 2 + 1
	for i, name := range wantOrder {
		want := 100 * float64(5-i) / float64(total)
		got := pctOf(es, name)
		if math.Abs(got-want) > 6 {
			t.Errorf("%s: estimated %.1f%%, actual %.1f%%", name, got, want)
		}
	}
}

func TestSearchTwoWayFindsTopObject(t *testing.T) {
	w := &sweeps{
		names:   []string{"A", "B", "C", "D"},
		weights: []int{1, 1, 4, 2},
		size:    128 << 10,
	}
	s, _ := searchRig(t, w, SearchConfig{N: 2, Interval: 5_000_000}, 60_000_000)
	if !s.Done() {
		t.Fatalf("2-way search not finished (%d iterations)", s.Iterations())
	}
	es := s.Estimates()
	if len(es) == 0 {
		t.Fatal("2-way search found nothing")
	}
	if es[0].Object.Name != "C" {
		t.Fatalf("2-way top = %s (%.1f%%), want C", es[0].Object.Name, es[0].Pct)
	}
}

func TestSearchNeedsEnoughCounters(t *testing.T) {
	w := &sweeps{names: []string{"A"}, weights: []int{1}, size: 128 << 10}
	m, om := rig(w, 2)
	s := NewSearch(SearchConfig{N: 10})
	if err := s.Install(m, om); err == nil {
		t.Fatal("search accepted PMU with too few counters")
	}
}

func TestSearchDoubleInstallRejected(t *testing.T) {
	w := &sweeps{names: []string{"A"}, weights: []int{1}, size: 128 << 10}
	m, om := rig(w, 10)
	s := NewSearch(SearchConfig{})
	if err := s.Install(m, om); err != nil {
		t.Fatal(err)
	}
	if err := s.Install(m, om); err == nil {
		t.Fatal("double install accepted")
	}
}

// figure2 builds the paper's Figure 2 scenario: six arrays where the
// top-half region outweighs the bottom half, but the single hottest array
// (E) lives in the bottom half.
func figure2() *sweeps {
	return &sweeps{
		names:   []string{"A", "B", "C", "D", "E", "F"},
		weights: []int{4, 4, 4, 1, 5, 2}, // 20/20/20/5/25/10 %
		size:    128 << 10,
	}
}

func TestSearchGreedyMissesBacktrackTarget(t *testing.T) {
	// The greedy (no priority queue) ablation: refining only the best
	// region each iteration descends into the 60% half and terminates on
	// a 20% array, never finding E (25%).
	s, _ := searchRig(t, figure2(), SearchConfig{N: 2, Interval: 5_000_000, Greedy: true}, 60_000_000)
	if !s.Done() {
		t.Fatalf("greedy search not finished (%d iterations)", s.Iterations())
	}
	es := s.Estimates()
	if len(es) == 0 {
		t.Fatal("greedy search found nothing")
	}
	if es[0].Object.Name == "E" {
		t.Fatalf("greedy search found E; the ablation should demonstrate the failure (got %+v)", es)
	}
}

func TestSearchPriorityQueueFindsE(t *testing.T) {
	s, _ := searchRig(t, figure2(), SearchConfig{N: 2, Interval: 5_000_000}, 80_000_000)
	if !s.Done() {
		t.Fatalf("search not finished (%d iterations)", s.Iterations())
	}
	es := s.Estimates()
	if len(es) == 0 {
		t.Fatal("search found nothing")
	}
	if es[0].Object.Name != "E" {
		t.Fatalf("priority-queue search top = %s (%.1f%%), want E", es[0].Object.Name, es[0].Pct)
	}
}

// phased alternates between two groups of arrays: group 1 (A, B) active in
// phase 0, group 2 (C) active in phase 1, modelled on applu's behaviour in
// the paper's Figure 5.
type phased struct {
	sweeps
	phaseLen int
	step     int
}

func (w *phased) Step(m *machine.Machine) {
	phase := (w.step / w.phaseLen) % 2
	w.step++
	if phase == 0 {
		for pass := 0; pass < 2; pass++ {
			m.LoadRange(w.bases[0], w.size, 8, 0)
			m.LoadRange(w.bases[1], w.size, 8, 0)
		}
	} else {
		m.LoadRange(w.bases[2], w.size, 8, 0)
	}
}

func TestSearchPhaseHandlingKeepsIdleRegions(t *testing.T) {
	w := &phased{
		sweeps:   sweeps{names: []string{"A", "B", "C"}, weights: []int{1, 1, 1}, size: 128 << 10},
		phaseLen: 4,
	}
	s, _ := searchRig(t, w, SearchConfig{N: 10, Interval: 200_000}, 60_000_000)
	if !s.Done() {
		t.Fatalf("search not done (%d iters)", s.Iterations())
	}
	es := s.Estimates()
	// A and B dominate overall (2 sweeps x 2 arrays x 4 steps vs 1 sweep x
	// 4 steps): the search must find both despite their idle phases.
	if rankOf(es, "A") == 0 || rankOf(es, "B") == 0 {
		t.Fatalf("phase handling lost a dominant array: %+v", es)
	}
}

func TestSearchIntervalGrowsUnderPhases(t *testing.T) {
	w := &phased{
		sweeps:   sweeps{names: []string{"A", "B", "C"}, weights: []int{1, 1, 1}, size: 128 << 10},
		phaseLen: 4,
	}
	cfg := SearchConfig{N: 10, Interval: 100_000}
	n := cfg.N
	m, om := rig(w, n)
	s := NewSearch(cfg)
	if err := s.Install(m, om); err != nil {
		t.Fatal(err)
	}
	m.Run(w, 30_000_000)
	if s.Interval() < 100_000 {
		t.Fatalf("interval shrank: %d", s.Interval())
	}
}
