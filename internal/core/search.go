package core

import (
	"fmt"
	"sort"

	"membottle/internal/machine"
	"membottle/internal/mem"
	"membottle/internal/objmap"
	"membottle/internal/obs"
	"membottle/internal/shadow"
)

// The search's fixed parameters. The paper leaves them "arbitrarily
// chosen" (§5); the adaptive knobs that answer that criticism are
// SearchConfig.TargetMissesPerInterval and SamplerConfig.TargetOverheadPct.
const (
	// searchIntervalGrowth is the factor applied to the interval each
	// time a zero-miss region is retained by the phase heuristic.
	searchIntervalGrowth = 1.5
	// searchResidualPct terminates the search when the regions still
	// containing multiple objects account for less than this percentage
	// of misses ("the percentage of cache misses within unsearched
	// regions drops below a selectable threshold").
	searchResidualPct = 1.0
	// searchPhasePatience is how many consecutive zero-miss intervals a
	// previously top-ranked region survives before being discarded.
	searchPhasePatience = 3
	// searchMaxIterations bounds the search as a safety net.
	searchMaxIterations = 100_000
	// searchFinalPasses is the number of extra measurement intervals
	// taken over exactly the found objects' extents after the search
	// terminates, to refine the reported percentages.
	searchFinalPasses = 6
	// searchFinalIntervalFactor stretches the measurement interval during
	// the final estimation passes. Long final intervals average over the
	// application's sweep schedule (and across its phases), so the
	// reported percentages converge on the true shares.
	searchFinalIntervalFactor = 12
	// searchMaxIntervalFactor caps phase-driven interval growth at this
	// multiple of the initial interval, so a few persistently idle
	// regions cannot stall the search.
	searchMaxIntervalFactor = 16
	// searchRetireAfter is the number of measurements before a found
	// region is retired (RetireFound only).
	searchRetireAfter = 3
	// searchStateLines is the per-interrupt handler state footprint in
	// cache lines.
	searchStateLines = 32
)

// SearchConfig configures the n-way search technique (§2.2). The
// remaining parameters are the package constants above; the smallest
// splittable region is one cache line.
type SearchConfig struct {
	// N is the number of region cache-miss counters (the paper evaluates
	// n=10 and n=2; one additional global counter is implicit). Default
	// 10; the search needs at least 2.
	N int
	// Interval is the initial length of a measurement iteration in
	// virtual cycles. The phase heuristic may stretch it. Default
	// 8,000,000.
	Interval uint64
	// NoPhaseHandling disables the zero-miss retention heuristic
	// (ablation: the applu phase study).
	NoPhaseHandling bool
	// Greedy disables the priority queue: each iteration refines only the
	// best region measured in that iteration and discards the rest. This
	// is the flawed strategy of the paper's Figure 2, kept for ablation.
	Greedy bool
	// NoAlignSplits disables object-boundary alignment of split points
	// (ablation: the naive splitting the paper warns about).
	NoAlignSplits bool
	// RetireFound implements the improvement the paper's conclusion
	// suggests for the search's n-1 result limit: "returning to search
	// previously discarded areas after the ones causing the most cache
	// misses have been examined fully." A single-object region that has
	// been measured searchRetireAfter (3) times is retired from the
	// priority queue, freeing its counter to keep refining the remaining
	// address space, so the search can report more objects than it has
	// counters.
	RetireFound bool
	// TargetMissesPerInterval, if nonzero, adapts the iteration length so
	// each interval observes roughly this many cache misses — the paper's
	// §5 plan to adjust "the length of a search iteration" automatically
	// instead of choosing it per application. Adaptation is bounded to
	// [Interval/4, Interval*searchMaxIntervalFactor] and at most doubles
	// or halves per step.
	TargetMissesPerInterval uint64
	// RecordHistory keeps a per-iteration snapshot of the measured
	// regions and their shares, enabling Figure 1-style progress traces
	// of how the search narrows through the address space.
	RecordHistory bool
}

// Search implements the n-way search for memory bottlenecks. The address
// space is divided into n regions measured by hardware counters; at each
// timer interrupt the regions' shares of total misses are computed and
// pushed into a priority queue; the top regions are split and re-measured
// until the top n-1 regions each contain a single object.
type Search struct {
	cfg SearchConfig
	om  *objmap.Map
	m   *machine.Machine

	// Limits copied from the package constants by NewSearch; tests lower
	// them before Install to reach the limits quickly.
	maxIterations     int
	finalPasses       int
	maxIntervalFactor uint64
	minRegionBytes    uint64 // the cache line size, set by Install

	pq        regionPQ
	measuring []*Region
	counterOf []mem.Addr // base programmed per counter (diagnostics)

	lastGlobal uint64
	interval   uint64
	anomalies  uint64

	iterations int
	done       bool
	finalizing bool
	finalLeft  int
	finalBatch int
	results    []*Region
	retired    []*Region
	history    []IterationRecord

	// Shadow-resident structures.
	state      shadow.State
	counterArr shadow.Array
	pqArr      shadow.Array
	objTable   shadow.Array

	installed bool
}

// NewSearch returns an uninstalled search profiler.
func NewSearch(cfg SearchConfig) *Search {
	return &Search{
		cfg:               cfg,
		maxIterations:     searchMaxIterations,
		finalPasses:       searchFinalPasses,
		maxIntervalFactor: searchMaxIntervalFactor,
	}
}

// Iterations returns the number of measurement intervals completed.
func (s *Search) Iterations() int { return s.iterations }

// Anomalies returns the number of implausible PMU readings the search
// observed and discarded (global miss count moving backwards, a region
// counter exceeding the interval's total, or a saturated counter). A
// nonzero value means the hardware misbehaved and the estimates are
// degraded rather than exact.
func (s *Search) Anomalies() uint64 { return s.anomalies }

// Interval returns the current iteration length in cycles.
func (s *Search) Interval() uint64 { return s.interval }

// Done implements Profiler: the search has terminated and its final
// estimation passes have completed.
func (s *Search) Done() bool { return s.done }

// Converged reports whether the search itself has terminated (found its
// objects); the long final estimation passes may still be running.
func (s *Search) Converged() bool { return s.done || s.finalizing }

// Install implements Profiler.
func (s *Search) Install(m *machine.Machine, om *objmap.Map) error {
	if s.installed {
		return fmt.Errorf("core: search already installed")
	}
	if s.cfg.N == 0 {
		s.cfg.N = 10
	}
	if s.cfg.Interval == 0 {
		s.cfg.Interval = 8_000_000
	}
	if s.cfg.N < 2 {
		return fmt.Errorf("core: search needs at least 2 region counters, got N=%d", s.cfg.N)
	}
	if m.PMU.NumCounters() < s.cfg.N {
		return fmt.Errorf("core: search needs %d region counters, PMU has %d", s.cfg.N, m.PMU.NumCounters())
	}
	lineSize := m.Cache.Config().LineSize
	s.m = m
	s.om = om
	s.interval = s.cfg.Interval
	s.minRegionBytes = uint64(lineSize)

	arena := shadow.NewArena(m.Space)
	var err error
	if s.state, err = shadow.NewState(arena, searchStateLines, lineSize); err != nil {
		return err
	}
	if s.counterArr, err = arena.Array(uint64(s.cfg.N), 16); err != nil {
		return err
	}
	if s.pqArr, err = arena.Array(4096, 32); err != nil {
		return err
	}
	if s.objTable, err = arena.Array(uint64(om.Len()+1024), 32); err != nil {
		return err
	}

	s.initialPartition()
	s.program()
	m.TimerHandler = s.iterate
	m.PMU.SetTimer(m.Cycles + s.interval)
	s.installed = true
	return nil
}

// initialPartition divides the searched address space into n regions with
// object-aligned boundaries.
func (s *Search) initialPartition() {
	lo, hi := s.m.Space.Extent()
	span := uint64(hi - lo)
	n := s.cfg.N
	prev := lo
	for i := 1; i <= n; i++ {
		var cut mem.Addr
		if i == n {
			cut = hi
		} else {
			target := lo + mem.Addr(span*uint64(i)/uint64(n))
			if target <= prev {
				continue
			}
			if s.cfg.NoAlignSplits {
				cut = target
			} else {
				cut = s.om.AlignPoint(prev, hi, target)
			}
			if cut <= prev || cut >= hi {
				continue
			}
		}
		s.measuring = append(s.measuring, s.newRegion(prev, cut))
		prev = cut
	}
}

// newRegion constructs a region and classifies it as terminal if it
// overlaps exactly one object.
func (s *Search) newRegion(lo, hi mem.Addr) *Region {
	r := &Region{Lo: lo, Hi: hi}
	overlapping := s.om.Overlapping(lo, hi)
	r.hasObjects = len(overlapping) > 0
	if len(overlapping) == 1 {
		r.Obj = overlapping[0]
		r.foundAt = s.iterations
	}
	return r
}

// program points the PMU's region counters at the regions currently being
// measured. Terminal regions are measured over exactly the object's
// extent ("each cache miss counter set to cover exactly the area of one
// of the found objects"), even if the region that discovered the object
// covers only part of it.
func (s *Search) program() {
	p := s.m.PMU
	p.DisableAllCounters()
	s.counterOf = s.counterOf[:0]
	for i, r := range s.measuring {
		lo, hi := r.Lo, r.Hi
		if r.Obj != nil {
			lo, hi = r.Obj.Base, r.Obj.End()
		}
		p.SetRegion(i, lo, hi)
		s.counterOf = append(s.counterOf, lo)
	}
}

// chargePQOp charges shadow traffic for one priority-queue operation that
// performed the given number of sift steps.
func (s *Search) chargePQOp(m *machine.Machine, steps int) {
	idx := uint64(s.pq.Len())
	for k := 0; k <= steps; k++ {
		s.pqArr.Load(m, idx)
		s.pqArr.Store(m, idx)
		idx /= 2
	}
	m.Compute(uint64(48 * (steps + 1)))
}

func (s *Search) pqPush(m *machine.Machine, r *Region) {
	steps := s.pq.Push(r)
	s.chargePQOp(m, steps)
}

func (s *Search) pqPop(m *machine.Machine) *Region {
	r, steps := s.pq.Pop()
	s.chargePQOp(m, steps)
	return r
}

// iterate is the timer-interrupt handler: one search iteration.
func (s *Search) iterate(m *machine.Machine) {
	if s.done {
		return
	}
	s.iterations++
	s.state.Touch(m)
	m.Compute(9000) // fixed bookkeeping: signal decode, region tables, interval stats

	global := m.PMU.GlobalMisses
	if global < s.lastGlobal {
		// The global miss count moved backwards — impossible on sane
		// hardware, so treat the whole interval as unusable rather than
		// computing a wrapped-around delta: resynchronize and re-measure.
		s.anomalies++
		s.lastGlobal = global
		s.rearm(m)
		return
	}
	delta := global - s.lastGlobal
	s.lastGlobal = global

	if o := m.Obs; o != nil {
		o.SearchRounds.Inc()
		o.Emit(obs.Event{Cycle: m.Cycles, Kind: obs.EvSearchRound,
			A: uint64(len(s.measuring)), B: delta})
	}

	if delta == 0 && !s.finalizing {
		// Nothing happened (application in a pure-compute phase): stretch
		// the interval and re-measure the same regions.
		s.growInterval()
		s.rearm(m)
		return
	}

	if s.finalizing {
		s.finalizeStep(m, delta)
		return
	}

	if s.cfg.TargetMissesPerInterval > 0 {
		s.adaptInterval(delta)
		m.Compute(30)
	}

	// Read each region counter, compute its share, and triage.
	counts := make([]uint64, len(s.measuring))
	for i := range s.measuring {
		counts[i] = m.PMU.ReadCounter(i)
		s.counterArr.Load(m, uint64(i))
		m.Compute(120)
		// Sanity-clamp implausible readings: a region cannot see more
		// misses than the interval's total, and an all-ones value is a
		// saturated/stuck counter, not a measurement. Clamping degrades
		// the estimate instead of corrupting every downstream percentage.
		if counts[i] == ^uint64(0) {
			s.anomalies++
			s.noteClamp(m, i, ^uint64(0))
			counts[i] = 0
		} else if counts[i] > delta {
			s.anomalies++
			s.noteClamp(m, i, counts[i])
			counts[i] = delta
		}
	}
	s.snapshot(counts, delta)

	if s.cfg.Greedy {
		s.greedyStep(m, counts, delta)
		return
	}

	grew := false
	for i, r := range s.measuring {
		pct := 100 * float64(counts[i]) / float64(delta)
		switch {
		case r.Obj != nil:
			// Terminal region: accumulate the sample (zero included; the
			// average reflects phases honestly) and keep it ranked — or,
			// with RetireFound, set it aside once measured enough so its
			// counter can go explore the rest of the address space.
			r.record(pct)
			if s.cfg.RetireFound && r.nMeasured >= searchRetireAfter {
				s.retired = append(s.retired, r)
				m.Compute(24)
			} else {
				s.pqPush(m, r)
			}
		case counts[i] > 0:
			r.lastPct = pct
			r.zeroStreak = 0
			s.pqPush(m, r)
		case !s.cfg.NoPhaseHandling && r.wasTop && r.hasObjects && r.zeroStreak < searchPhasePatience:
			// Phase heuristic: a previously top-ranked region showing no
			// misses is retained with its old score, and future intervals
			// are lengthened (once per iteration) to cover multiple phases.
			r.zeroStreak++
			if !grew {
				s.growInterval()
				grew = true
			}
			s.pqPush(m, r)
		default:
			// Discarded: leaves the search entirely.
		}
	}

	if s.checkTermination(m) {
		return
	}
	s.selectAndSplit(m)
	s.program()
	s.rearm(m)
}

// adaptInterval rescales the iteration length toward the configured
// misses-per-interval target, bounded to a factor of two per step and to
// [Interval/4, Interval*maxIntervalFactor] overall.
func (s *Search) adaptInterval(delta uint64) {
	target := s.cfg.TargetMissesPerInterval
	next := s.interval
	switch {
	case delta == 0 || delta*2 < target:
		next = s.interval * 2
	case delta > target*2:
		next = s.interval / 2
	default:
		scaled := float64(s.interval) * float64(target) / float64(delta)
		next = uint64(scaled)
	}
	if min := s.cfg.Interval / 4; next < min {
		next = min
	}
	if max := s.cfg.Interval * s.maxIntervalFactor; next > max {
		next = max
	}
	s.interval = next
}

// growInterval lengthens future measurement intervals, capped so that
// persistently idle regions cannot stall the search indefinitely.
func (s *Search) growInterval() {
	grown := uint64(float64(s.interval) * searchIntervalGrowth)
	if grown <= s.interval {
		grown = s.interval + 1
	}
	if cap := s.cfg.Interval * s.maxIntervalFactor; grown > cap {
		grown = cap
	}
	if grown > s.interval {
		s.interval = grown
	}
}

func (s *Search) rearm(m *machine.Machine) {
	m.PMU.SetTimer(m.Cycles + s.interval)
}

// noteClamp records one discarded implausible counter reading: counter
// index and the raw value it reported before clamping.
func (s *Search) noteClamp(m *machine.Machine, counter int, raw uint64) {
	if o := m.Obs; o != nil {
		o.CounterClamps.Inc()
		o.Emit(obs.Event{Cycle: m.Cycles, Kind: obs.EvCounterClamp,
			A: uint64(counter), B: raw})
	}
}

// checkTermination applies the paper's two stopping rules and enters the
// final estimation phase when either holds.
func (s *Search) checkTermination(m *machine.Machine) bool {
	if s.pq.Len() == 0 {
		// Everything discarded: nothing further to refine.
		s.beginFinalize(m)
		return true
	}
	if s.iterations >= s.maxIterations {
		s.beginFinalize(m)
		return true
	}
	// The paper's primary stopping rule — the top n-1 regions all hold a
	// single object — exists because without retirement there are not
	// enough counters to keep refining. With RetireFound, found regions
	// vacate their counters instead, so the search keeps going until the
	// unsearched share falls below the residual threshold.
	if !s.cfg.RetireFound {
		top := s.pq.TopK(s.cfg.N - 1)
		m.Compute(uint64(16 * len(top)))
		allSingle := len(top) == s.cfg.N-1
		for _, r := range top {
			if r.Obj == nil {
				allSingle = false
				break
			}
		}
		if allSingle {
			s.beginFinalize(m)
			return true
		}
	}
	residual := 0.0
	for _, r := range s.pq.All() {
		if r.Obj == nil {
			residual += r.Score()
		}
	}
	if residual < searchResidualPct {
		s.beginFinalize(m)
		return true
	}
	return false
}

// selectAndSplit pops the best regions off the priority queue and assigns
// the n counters: a terminal region consumes one counter (re-measurement),
// a splittable region is halved and consumes two.
func (s *Search) selectAndSplit(m *machine.Machine) {
	budget := s.cfg.N
	var next []*Region
	for budget > 0 && s.pq.Len() > 0 {
		top := s.pq.Peek()
		if top.Obj == nil && budget < 2 {
			break // cannot afford a split; leave it ranked for next time
		}
		r := s.pqPop(m)
		r.wasTop = true
		if r.Obj != nil || !s.splittable(r) {
			next = append(next, r)
			budget--
			continue
		}
		a, b := s.split(m, r)
		next = append(next, a, b)
		budget -= 2
	}
	if len(next) == 0 {
		// Pathological (e.g. queue held only unsplittable giants with
		// budget 1): re-measure the top region to make progress.
		if r := s.pqPop(m); r != nil {
			next = append(next, r)
		}
	}
	s.measuring = next
}

// splittable reports whether a region can usefully be halved.
func (s *Search) splittable(r *Region) bool {
	return r.Obj == nil && r.Span() > s.minRegionBytes
}

// split halves a region at an object-aligned point and classifies the two
// children, charging the boundary lookup to the shadow object table.
func (s *Search) split(m *machine.Machine, r *Region) (*Region, *Region) {
	var mid mem.Addr
	if s.cfg.NoAlignSplits {
		mid = r.Lo + mem.Addr(r.Span()/2)
	} else {
		mid = s.om.AlignSplit(r.Lo, r.Hi)
	}
	if mid <= r.Lo || mid >= r.Hi {
		mid = r.Lo + mem.Addr(r.Span()/2)
		if mid == r.Lo {
			mid = r.Lo + 1
		}
	}
	// Charge the extent lookup: binary search over the object table plus
	// tree bookkeeping compute.
	idx := uint64(0)
	if o := s.om.Lookup(mid); o != nil {
		idx = uint64(o.ID)
	}
	probes := shadow.BinarySearchProbes(m, s.objTable, uint64(s.om.Len()), idx)
	m.Compute(uint64(probes)*6 + 64)

	if o := m.Obs; o != nil {
		o.RegionSplits.Inc()
		o.Emit(obs.Event{Cycle: m.Cycles, Kind: obs.EvRegionSplit,
			A: uint64(r.Lo), B: uint64(r.Hi)})
	}
	a := s.newRegion(r.Lo, mid)
	b := s.newRegion(mid, r.Hi)
	// Children inherit the parent's last share as a prior, halved, so
	// they rank sensibly until measured, and they inherit the parent's
	// top-rank status: in the paper, the regions measured each iteration
	// are precisely the halves of the top n/2 regions, so the zero-miss
	// phase exception must extend to them or it could never apply to a
	// region still being refined. Object-free children are exempt — they
	// are discarded on a zero measurement via the hasObjects guard.
	a.lastPct = r.lastPct / 2
	b.lastPct = r.lastPct / 2
	a.wasTop = r.wasTop
	b.wasTop = r.wasTop
	return a, b
}

// greedyStep implements the Figure 2 ablation: refine only the single best
// region measured this iteration; no backtracking.
func (s *Search) greedyStep(m *machine.Machine, counts []uint64, delta uint64) {
	best := -1
	var bestPct float64
	for i, r := range s.measuring {
		pct := 100 * float64(counts[i]) / float64(delta)
		if r.Obj != nil {
			r.record(pct)
		} else {
			r.lastPct = pct
		}
		if best == -1 || pct > bestPct {
			best, bestPct = i, pct
		}
	}
	r := s.measuring[best]
	if r.Obj != nil || !s.splittable(r) {
		// Greedy termination: the best region is a single object.
		s.results = s.collectGreedyResults()
		s.beginFinalize(m)
		return
	}
	// Split the winner n ways (reusing binary splits) and discard the rest.
	parts := []*Region{r}
	for len(parts) < s.cfg.N {
		// Split the widest multi-object part.
		widest := -1
		for i, p := range parts {
			if s.splittable(p) && (widest == -1 || p.Span() > parts[widest].Span()) {
				widest = i
			}
		}
		if widest == -1 {
			break
		}
		a, b := s.split(m, parts[widest])
		parts[widest] = a
		parts = append(parts, b)
	}
	s.measuring = parts
	s.program()
	s.rearm(m)
	if s.iterations >= s.maxIterations {
		s.results = s.collectGreedyResults()
		s.beginFinalize(m)
	}
}

func (s *Search) collectGreedyResults() []*Region {
	var out []*Region
	for _, r := range s.measuring {
		if r.Obj != nil {
			out = append(out, r)
		}
	}
	return out
}

// beginFinalize programs the counters over exactly the found objects and
// schedules refinement intervals ("taking additional samples with each
// cache miss counter set to cover exactly the area of one of the found
// objects"). When more objects were found than there are counters, the
// passes rotate through them in batches of n. The final intervals are
// much longer than search intervals so each pass averages over the
// application's sweep schedule and phases; the search-phase averages are
// kept as fallbacks for any object whose final pass does not complete
// before the run ends.
func (s *Search) beginFinalize(m *machine.Machine) {
	if s.results == nil {
		s.results = s.collectResults()
	}
	s.finalizing = true
	if len(s.results) == 0 {
		s.finish(m)
		return
	}
	batches := (len(s.results) + s.cfg.N - 1) / s.cfg.N
	s.finalLeft = s.finalPasses
	if s.finalLeft < batches {
		s.finalLeft = batches
	}
	s.finalBatch = 0
	s.interval = s.cfg.Interval * searchFinalIntervalFactor
	// Demote each region's search-phase average to a fallback (AvgPct
	// falls back to lastPct when no final sample lands) and restart the
	// running averages for the long-interval passes.
	for _, r := range s.results {
		r.lastPct = r.AvgPct()
		r.sumPct, r.nMeasured = 0, 0
	}
	s.programFinalBatch()
	s.rearm(m)
}

// programFinalBatch points the counters at the current batch of found
// objects.
func (s *Search) programFinalBatch() {
	lo := s.finalBatch * s.cfg.N
	hi := lo + s.cfg.N
	if hi > len(s.results) {
		hi = len(s.results)
	}
	s.measuring = s.results[lo:hi]
	s.program()
}

// finalizeStep records one refinement interval over the current batch of
// found objects and advances to the next batch.
func (s *Search) finalizeStep(m *machine.Machine, delta uint64) {
	for i, r := range s.measuring {
		cnt := m.PMU.ReadCounter(i)
		s.counterArr.Load(m, uint64(i))
		if cnt == ^uint64(0) {
			s.anomalies++
			s.noteClamp(m, i, ^uint64(0))
			cnt = 0
		} else if cnt > delta {
			s.anomalies++
			s.noteClamp(m, i, cnt)
			cnt = delta
		}
		if delta > 0 {
			r.record(100 * float64(cnt) / float64(delta))
		}
		m.Compute(120)
	}
	s.finalLeft--
	if s.finalLeft <= 0 {
		s.finish(m)
		return
	}
	batches := (len(s.results) + s.cfg.N - 1) / s.cfg.N
	s.finalBatch = (s.finalBatch + 1) % batches
	s.programFinalBatch()
	s.rearm(m)
}

// finish stops the search: counters and timer released.
func (s *Search) finish(m *machine.Machine) {
	s.done = true
	m.PMU.SetTimer(0)
	m.PMU.DisableAllCounters()
}

// collectResults gathers the terminal regions known to the search, ranked
// by averaged share. Only single-object regions are reported, as in the
// paper ("others have not been fully examined").
func (s *Search) collectResults() []*Region {
	seen := make(map[*objmap.Object]*Region)
	consider := func(r *Region) {
		if r == nil || r.Obj == nil {
			return
		}
		if prev, ok := seen[r.Obj]; !ok || r.Score() > prev.Score() {
			seen[r.Obj] = r
		}
	}
	for _, r := range s.pq.All() {
		consider(r)
	}
	for _, r := range s.measuring {
		consider(r)
	}
	for _, r := range s.retired {
		consider(r)
	}
	out := make([]*Region, 0, len(seen))
	for _, r := range seen {
		out = append(out, r)
	}
	// Rank descending by score; better's tie-break on Region.Lo is a
	// total order, so the sort erases the map's random iteration order.
	sort.Slice(out, func(i, j int) bool { return better(out[i], out[j]) })
	return out
}

// Estimates implements Profiler.
func (s *Search) Estimates() []Estimate {
	regions := s.results
	if regions == nil {
		regions = s.collectResults()
	}
	var out []Estimate
	for _, r := range regions {
		pct := r.AvgPct()
		if pct < MinReportPct {
			continue
		}
		out = append(out, Estimate{Object: r.Obj, Pct: pct, Samples: uint64(r.nMeasured)})
	}
	sortEstimates(out)
	return out
}

// Found returns the terminal regions ranked by score (diagnostics).
func (s *Search) Found() []*Region {
	if s.results != nil {
		return s.results
	}
	return s.collectResults()
}
