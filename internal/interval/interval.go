// Package interval is the representative-interval simulation engine
// (SimPoint-style): instead of simulating the cache behaviour of every
// reference, it captures the reference stream once — run-compacted by
// the machine's RunSink capture mode, so consecutive same-line
// references collapse into single packed entries without losing a miss
// (see mem.PackRun) — splits the stream into fixed-size intervals,
// fingerprints each interval with a per-object reference vector,
// clusters the fingerprints with a seeded deterministic k-means,
// simulates only each cluster's representative interval — functionally
// warmed from the stream preceding it via StateInto snapshots — and
// extrapolates the whole run's truth tables from the representatives'
// per-object miss counts, weighted by cluster population.
//
// The result is approximate: per-object miss counts, cache statistics,
// and the reconstructed cycle count are estimates. Reference counts and
// instruction counts stay exact (capture replays the full workload), so
// the cross-engine tripwires on reference totals keep holding. The full
// simulation engines remain the differential oracle; Compare produces
// the per-counter relative-error report the oracle test suite asserts
// bounds on, per app.
//
// Everything downstream of capture is deterministic: the interval plan
// depends only on the captured stream, k-means uses a seeded xorshift
// generator with fixed tie-breaks, and representative measurements are
// slotted by cluster index, so the extrapolated tables are byte-identical
// across runs and across worker counts.
//
// The trace store is built from 8 MiB blocks, and the full-size ones are
// recycled across runs through a process-wide free list, so a repeat run
// zeroes no fresh block. Recycled blocks are never zeroed: every reader
// of the store stays within the entries this run wrote. The free list
// keeps every block returned to it, so the process retains at most the
// largest number of full-size blocks that were live at once.
package interval

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"membottle/internal/cache"
	"membottle/internal/capture"
	"membottle/internal/machine"
	"membottle/internal/mem"
	"membottle/internal/objmap"
	"membottle/internal/obs"
	"membottle/internal/truth"
)

// Warmup selects how a representative interval's cache is initialized.
type Warmup int

const (
	// WarmupPrev functionally warms the representative's cache by
	// replaying the stream suffix immediately preceding it (see
	// DefaultWarmupRefs) into a scratch cache from cold, then
	// installing that cache's state (via a reused StateInto snapshot)
	// as the measurement cache's starting image. Interval 0 starts cold,
	// which is exact. This is the default.
	WarmupPrev Warmup = iota
	// WarmupNone measures every representative from a cold cache,
	// overstating misses for workloads with cross-interval reuse. Kept
	// for sensitivity studies.
	WarmupNone
)

// DefaultClusters is the cluster count when Config.Clusters is zero.
const DefaultClusters = 8

// Default interval sizing: with Config.IntervalRefs zero the plan aims
// for defaultTargetIntervals intervals, clamping the interval size to
// [minIntervalRefs, maxIntervalRefs] so short traces do not degenerate
// into per-reference intervals and long traces keep enough intervals for
// the clusters to be meaningful.
const (
	defaultTargetIntervals = 64
	minIntervalRefs        = 1 << 12
	maxIntervalRefs        = 1 << 22
)

// kmeansIters bounds the Lloyd iterations; the fingerprint spaces here
// converge in far fewer.
const kmeansIters = 48

// fpSampleTarget bounds the run entries resolved per interval while
// fingerprinting: long intervals are stride-sampled down to roughly this
// many lookups (the stride is derived from the interval's entry count,
// so the sample is deterministic), each weighted by its run length.
// Composition estimates over thousands of samples are accurate to well
// under a percent, and the fingerprint pass stays cheap on
// reference-dense traces.
const fpSampleTarget = 8192

// DefaultWarmupRefs is the functional-warmup budget per representative
// under WarmupPrev: the preceding stream's run-compacted suffix of
// DefaultWarmupRefs entries is replayed, covering at least that many
// references (every run holds one or more) at a probe cost bounded by the
// same number. That is enough references to repopulate the default cache
// geometry several times over, so measured miss counts reflect steady
// state rather than a cold cache, while staying a small multiple of the
// adaptive interval size.
const DefaultWarmupRefs = 1 << 15

// Config configures one representative-interval run.
type Config struct {
	// Cache is the simulated cache geometry (DefaultConfig when zero).
	Cache cache.Config
	// IntervalRefs is the interval size in references; 0 sizes intervals
	// adaptively from the captured trace length.
	IntervalRefs int
	// Clusters is the k-means cluster count (and therefore the number of
	// representatives simulated); 0 selects DefaultClusters. Clamped to
	// the number of intervals.
	Clusters int
	// Seed drives the deterministic k-means initialization.
	Seed int64
	// Warmup selects representative cache-warmup handling.
	Warmup Warmup
	// Workers bounds the goroutines simulating representatives; 0 selects
	// GOMAXPROCS. Results are byte-identical for any worker count.
	Workers int
	// Obs, if non-nil, receives the same end-of-run totals a sequential
	// System.FlushObs would record, plus the interval.* instruments and
	// the interval-fingerprint / interval-cluster / representative-sim
	// trace events.
	Obs *obs.Obs
}

// Span is one interval's slice of the captured reference stream.
// Intervals are planned in reference space but cut on run boundaries
// (the capture stores the stream run-compacted, see mem.PackRun), so an
// interval's Refs can exceed the nominal interval size by at most one
// run. The spans exactly tile the stream in both spaces.
type Span struct {
	Start uint64 // global index of the interval's first reference
	Refs  uint64 // number of references in the interval

	// entry-space range in the run-compacted trace store
	estart, ecount uint64
}

// Plan records how the captured stream was partitioned, clustered, and
// represented; the fuzz and determinism tests assert its invariants
// (interval refs sum to TotalRefs, weights sum to 1, representatives are
// members of their clusters).
type Plan struct {
	TotalRefs uint64
	Spans     []Span
	// Assign maps each interval to its cluster.
	Assign []int
	// Reps maps each cluster to its representative interval.
	Reps []int
	// Weights is each cluster's share of all references.
	Weights []float64
}

// RepStats is one simulated representative's measurement.
type RepStats struct {
	Cluster  int
	Interval int
	Refs     uint64
	// Misses measured in the representative interval (after warmup; the
	// warmup replay's misses are discarded).
	Misses uint64
}

// Result is the outcome of one representative-interval run.
type Result struct {
	// Truth is the extrapolated per-object accounting (approximate).
	Truth *truth.Counter
	// Objects is the object map the run resolved against.
	Objects *objmap.Map
	// Stats mirrors the cache statistics of the equivalent full run:
	// Reads and Writes are exact (tallied from the captured stream),
	// Hits and Misses are extrapolated.
	Stats cache.Stats
	// Cycles is reconstructed as the capture clock plus the extrapolated
	// miss count times the miss latency; Insts and AppInsts are exact.
	Cycles   uint64
	Insts    uint64
	AppInsts uint64
	// Plan and Reps describe the sampling decisions behind the estimate.
	Plan Plan
	Reps []RepStats
	// SimRefs counts the references actually re-simulated through a
	// cache (representatives plus warmup replays) — the work the engine
	// did, against TotalRefs it avoided.
	SimRefs uint64
}

// blockEntries is the trace store's block granularity: 8 MiB of packed
// run entries per block, so storing a long capture never re-copies the
// trace the way a single growing slice would. The first block grows
// geometrically from smallBlockEntries up to blockEntries (see grow): a
// reference-sparse workload must not pay for zeroing and faulting a full
// 8 MiB block it will never fill — for the sparsest seed app that alone
// costs several times its whole full-engine run.
//
// Full-size blocks are recycled across runs through a process-wide free
// list (see release): a store takes a free block before it makes one,
// and skips the small-block ramp when it can, so a repeat run of the
// same cell zeroes no fresh block. Recycled blocks are not zeroed. That
// is safe because every reader of the store stays within len, and the
// store only grows len by appending captured entries. The free list
// keeps every block it is given, so the process retains at most the
// largest number of full blocks that were live at once.
const (
	blockEntries      = 1 << 20
	smallBlockEntries = 1 << 14
)

// freeBlocks is the process-wide free list of full-size trace-store
// blocks. It is a plain mutex-guarded slice rather than a sync.Pool: a
// pool may be emptied by any garbage collection, and a run that finds
// it empty pays for fresh zeroed blocks again.
var freeBlocks struct {
	sync.Mutex
	list [][]uint64
}

// takeBlock pops a recycled block with length 0 and capacity
// blockEntries, or returns nil when the free list is empty.
func takeBlock() []uint64 {
	freeBlocks.Lock()
	defer freeBlocks.Unlock()
	n := len(freeBlocks.list)
	if n == 0 {
		return nil
	}
	b := freeBlocks.list[n-1]
	freeBlocks.list[n-1] = nil
	freeBlocks.list = freeBlocks.list[:n-1]
	return b[:0]
}

// traceStore holds the captured stream run-compacted (mem.PackRun
// entries, one per maximal same-line run) in fixed-size blocks. Indices
// into the store are entry indices; reference-space positions live on
// the Spans planned over it. Its full-size blocks may be recycled from
// an earlier run and go back to the free list on release.
type traceStore struct {
	full [][]uint64 // completed blocks, each exactly blockEntries long
	cur  []uint64   // block being filled
	n    uint64     // entries stored
}

// room makes sure the current block has spare capacity, deferring to
// grow when it has none.
func (t *traceStore) room() {
	if len(t.cur) < cap(t.cur) {
		return
	}
	t.grow()
}

// grow rotates a filled full-size block into full, then continues in a
// recycled block when one is free, copying a small block's entries over.
// Without one it makes the next block: geometrically larger below
// blockEntries while the store is still in its first block, full-size
// after. Every block in full is exactly blockEntries long, keeping
// forSpan's uniform block indexing.
func (t *traceStore) grow() {
	if cap(t.cur) == blockEntries {
		t.full = append(t.full, t.cur)
		t.cur = nil
	}
	b := takeBlock()
	if b == nil {
		nc := blockEntries
		if len(t.full) == 0 {
			nc = min(max(cap(t.cur)*8, smallBlockEntries), blockEntries)
		}
		b = make([]uint64, 0, nc)
	}
	t.cur = append(b, t.cur...)
}

// release hands the store's full-size blocks to the free list and
// empties the store. Call it only after the last read of the store's
// entries; a second call is a no-op.
func (t *traceStore) release() {
	freeBlocks.Lock()
	freeBlocks.list = append(freeBlocks.list, t.full...)
	if cap(t.cur) == blockEntries {
		freeBlocks.list = append(freeBlocks.list, t.cur)
	}
	freeBlocks.Unlock()
	t.full = t.full[:0]
	t.cur = nil
	t.n = 0
}

// push appends one run entry.
func (t *traceStore) push(e uint64) {
	t.room()
	t.cur = append(t.cur, e)
	t.n++
}

// block returns the stored entries from global entry index i to the end
// of i's block.
func (t *traceStore) block(i uint64) []uint64 {
	bi := i / blockEntries
	b := t.cur
	if int(bi) < len(t.full) {
		b = t.full[bi]
	}
	return b[i%blockEntries:]
}

// forSpan invokes fn over consecutive chunks exactly covering the entry
// range [start, start+n) of the stored stream; base is the global entry
// index of chunk[0].
func (t *traceStore) forSpan(start, n uint64, fn func(chunk []uint64, base uint64)) {
	end := start + n
	for start < end {
		bi := start / blockEntries
		off := start % blockEntries
		var b []uint64
		if int(bi) < len(t.full) {
			b = t.full[bi]
		} else {
			b = t.cur
		}
		stop := uint64(len(b))
		if rel := end - start + off; rel < stop {
			stop = rel
		}
		fn(b[off:stop], start)
		start += stop - off
	}
}

// streamMark records one delivery boundary of the run-compacted
// capture: the store entry index and stream reference index it starts
// at, plus the capture clock there. The marks double as a sparse
// ref-to-entry index — planSpans jumps to the mark before a reference
// target and walks at most one delivery's entries to the exact run
// boundary — and as the timestamp source for trace events.
type streamMark struct {
	entry  uint64
	ref    uint64
	cycles uint64
}

// captureSink stores the run-compacted reference stream as the capture
// machine delivers it (machine.RunSink). Compaction happens in the
// machine's own capture pass, so this sink's whole per-reference cost is
// a bulk copy of entries — an eighth of the stream's words on the
// line-local seed apps (see mem.PackRun for why the collapse is exact
// under LRU).
type captureSink struct {
	store  traceStore
	marks  []streamMark
	nRefs  uint64 // references represented in the store
	writes uint64
}

// ConsumeRuns copies each delivered entry slice into the trace store and
// records the delivery boundary as a mark.
func (s *captureSink) ConsumeRuns(entries []uint64, refs, writes, cyclesBefore uint64) {
	s.marks = append(s.marks, streamMark{entry: s.store.n, ref: s.nRefs, cycles: cyclesBefore})
	s.nRefs += refs
	s.writes += writes
	st := &s.store
	for len(entries) > 0 {
		st.room()
		n := copy(st.cur[len(st.cur):cap(st.cur)], entries)
		st.cur = st.cur[:len(st.cur)+n]
		st.n += uint64(n)
		entries = entries[n:]
	}
}

// cycleAt returns the capture clock at the nearest recorded delivery
// boundary at or before the given reference index (0 when none).
func (s *captureSink) cycleAt(ref uint64) uint64 {
	i := sort.Search(len(s.marks), func(i int) bool { return s.marks[i].ref > ref })
	if i == 0 {
		return 0
	}
	return s.marks[i-1].cycles
}

// cut returns the first run boundary (entry index, cumulative reference
// count) at or past the reference target: the delivery marks locate the
// boundary to within one delivery, and a short entry walk from there
// finds it exactly — so planning never re-walks the whole trace.
func cut(st *traceStore, marks []streamMark, target uint64) (uint64, uint64) {
	i := sort.Search(len(marks), func(i int) bool { return marks[i].ref >= target })
	var e, refs uint64
	if i > 0 {
		e, refs = marks[i-1].entry, marks[i-1].ref
	}
	for e < st.n && refs < target {
		for _, en := range st.block(e) {
			refs += en&(mem.MaxRunLen-1) + 1
			e++
			if refs >= target {
				return e, refs
			}
		}
	}
	return e, refs
}

// planSpans splits the stored stream into consecutive intervals of at
// least intervalRefs references (adaptively sized when 0), cutting only
// on run boundaries. The spans exactly tile the stream: their Refs sum
// to total and their entry ranges are contiguous and cover the store.
func planSpans(st *traceStore, marks []streamMark, total uint64, intervalRefs int) []Span {
	if total == 0 {
		return nil
	}
	size := uint64(intervalRefs)
	if size == 0 {
		size = total / defaultTargetIntervals
		if size < minIntervalRefs {
			size = minIntervalRefs
		}
		if size > maxIntervalRefs {
			size = maxIntervalRefs
		}
	}
	if size > total {
		size = total
	}
	spans := make([]Span, 0, total/size+1)
	var e, r uint64
	for r < total {
		target := r + size
		if target > total {
			target = total
		}
		ne, nr := cut(st, marks, target)
		spans = append(spans, Span{Start: r, Refs: nr - r, estart: e, ecount: ne - e})
		e, r = ne, nr
	}
	return spans
}

// fingerprint computes each interval's normalized per-object reference
// vector from the stored trace — dimension one per mapped object plus
// one for unresolved addresses. The per-object composition is the
// attribution analogue of a basic-block vector: intervals in different
// program phases reference different data structures in different
// proportions, which is exactly the signal the extrapolated per-object
// tables depend on. Long intervals are stride-sampled (see
// fpSampleTarget), so the pass touches a bounded number of references
// per interval however long the trace is.
func fingerprint(st *traceStore, spans []Span, res *objmap.Resolver, nobj int) [][]float64 {
	vecs := make([][]float64, len(spans))
	dim := nobj + 1 // per-object + unresolved
	counts := make([]uint64, dim)
	for si, sp := range spans {
		for i := range counts {
			counts[i] = 0
		}
		stride := sp.ecount / fpSampleTarget
		if stride == 0 {
			stride = 1
		}
		var sampled uint64
		next := sp.estart
		st.forSpan(sp.estart, sp.ecount, func(chunk []uint64, base uint64) {
			end := base + uint64(len(chunk))
			for next < end {
				a, n := mem.UnpackRun(chunk[next-base])
				if o := res.Lookup(a); o != nil {
					counts[o.ID] += uint64(n)
				} else {
					counts[nobj] += uint64(n)
				}
				sampled += uint64(n)
				next += stride
			}
		})
		v := make([]float64, dim)
		if sampled > 0 {
			inv := 1 / float64(sampled)
			for i, c := range counts {
				v[i] = float64(c) * inv
			}
		}
		vecs[si] = v
	}
	return vecs
}

// repMeasure is one representative's raw measurement.
type repMeasure struct {
	counts    []uint64
	total     uint64 // all misses in the representative (matched + unmatched)
	unmatched uint64
	simRefs   uint64 // references swept, including warmup
}

// repWorker owns the private simulation state for measuring
// representatives: a measurement cache, a warmup cache, a reused
// snapshot buffer for the warmup hand-off, and a private resolver.
type repWorker struct {
	meas    *cache.Cache
	warm    *cache.Cache
	snap    cache.State
	res     *objmap.Resolver
	missIdx []uint32
	nobj    int
}

// measureRep simulates one cluster representative: optionally warm the
// cache functionally from the stream preceding it, then sweep the
// representative's span, attributing each miss to an object. Warmup
// replays the run-compacted suffix of the preceding stream, newest
// history last: warmRefs entries cover at least warmRefs references
// (every run holds one or more), so the warmed history meets the
// configured reference budget while its probe cost stays bounded by the
// same number — one short preceding interval is not enough to warm the
// cache, and the resulting cold-start bias inflates every estimate.
// counts is the caller-provided per-object tally slot (length nobj,
// zeroed); measureRep itself allocates nothing.
func (w *repWorker) measureRep(st *traceStore, spans []Span, rep int, warmup Warmup, warmRefs uint64, counts []uint64) repMeasure {
	out := repMeasure{counts: counts}
	if warmup == WarmupPrev && rep > 0 {
		lo := uint64(0)
		if es := spans[rep].estart; es > warmRefs {
			lo = es - warmRefs
		}
		w.warm.Flush()
		w.warm.Stats = cache.Stats{}
		st.forSpan(lo, spans[rep].estart-lo, func(chunk []uint64, _ uint64) {
			w.missIdx = w.warm.SweepRuns(chunk, w.missIdx[:0])
		})
		out.simRefs += w.warm.Stats.Reads
		// Hand the warmed image to the measurement cache through the
		// reused snapshot buffer, zeroing the statistics so the measured
		// stats describe only the representative interval.
		w.warm.StateInto(&w.snap)
		w.snap.Stats = cache.Stats{}
		if err := w.meas.SetState(w.snap); err != nil {
			// Same geometry by construction; a mismatch is a programming
			// error, not a run condition.
			panic(err)
		}
	} else {
		w.meas.Flush()
		w.meas.Stats = cache.Stats{}
	}
	sp := spans[rep]
	st.forSpan(sp.estart, sp.ecount, func(chunk []uint64, _ uint64) {
		w.missIdx = w.meas.SweepRuns(chunk, w.missIdx[:0])
		w.attribute(chunk, &out)
	})
	out.simRefs += sp.Refs
	out.total = w.meas.Stats.Misses
	return out
}

// attribute resolves the chunk's missing runs (already collected in
// missIdx) to objects. Only a run's first reference can miss, and a run
// entry carries exactly that reference's address, so attribution here
// matches the full engine's per-miss attribution.
func (w *repWorker) attribute(chunk []uint64, out *repMeasure) {
	for _, idx := range w.missIdx {
		a, _ := mem.UnpackRun(chunk[idx])
		obj := w.res.Lookup(a)
		if obj == nil {
			out.unmatched++
			continue
		}
		out.counts[obj.ID]++
	}
}

// Run executes the workload uninstrumented through the
// representative-interval engine. The returned Result approximates a
// full plain run of the same workload and budget; Compare quantifies the
// approximation against an exact run. A workload outside the engine's
// capture preconditions returns capture.ErrFallback (run the sequential
// engine instead); context cancellation surfaces as the capture machine's
// CancelledError.
func Run(ctx context.Context, w machine.Workload, budget uint64, cfg Config) (*Result, error) {
	if cfg.IntervalRefs < 0 {
		return nil, fmt.Errorf("interval: negative interval size %d", cfg.IntervalRefs)
	}
	k := cfg.Clusters
	if k <= 0 {
		k = DefaultClusters
	}

	p, err := capture.Setup("interval", w, cfg.Cache, cfg.Obs)
	if err != nil {
		return nil, err
	}
	snk := &captureSink{}
	// Every read of the store, the representative workers' included,
	// ends before Run returns, so its blocks go back to the free list on
	// every path out.
	defer snk.store.release()
	if err := p.Run(ctx, budget, snk); err != nil {
		return nil, err
	}

	om := p.Objects
	nobj := len(om.Objects())
	totalRefs := snk.nRefs
	spans := planSpans(&snk.store, snk.marks, totalRefs, cfg.IntervalRefs)
	writes := snk.writes
	vecs := fingerprint(&snk.store, spans, om.Resolver(), nobj)
	if k > len(spans) {
		k = len(spans)
	}
	assign, reps := clusterVecs(vecs, k, kmeansIters, cfg.Seed)

	// Cluster populations, weighted by references (intervals can differ
	// in length only at the tail, but the weights must reflect that).
	memberRefs := make([]uint64, k)
	for i, c := range assign {
		memberRefs[c] += spans[i].Refs
	}
	weights := make([]float64, k)
	if totalRefs > 0 {
		for c, r := range memberRefs {
			weights[c] = float64(r) / float64(totalRefs)
		}
	}

	// Simulate the representatives on a worker pool. Measurements are
	// slotted by cluster index, so scheduling cannot influence output;
	// their per-object tallies share one arena allocated up front, so the
	// measurement phase itself stays allocation-free.
	measures := make([]repMeasure, k)
	countsArena := make([]uint64, k*nobj)
	if k > 0 {
		workers := cfg.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > k {
			workers = k
		}
		pool := make([]*repWorker, workers)
		for i := range pool {
			pool[i] = &repWorker{meas: cache.New(p.Cache), warm: cache.New(p.Cache), res: om.Resolver(), nobj: nobj}
		}
		tasks := make(chan int)
		var wg sync.WaitGroup
		for _, wk := range pool {
			wg.Add(1)
			go func(wk *repWorker) {
				defer wg.Done()
				for c := range tasks {
					slot := countsArena[c*nobj : (c+1)*nobj : (c+1)*nobj]
					measures[c] = wk.measureRep(&snk.store, spans, reps[c], cfg.Warmup, DefaultWarmupRefs, slot)
				}
			}(wk)
		}
		for c := 0; c < k; c++ {
			tasks <- c
		}
		close(tasks)
		wg.Wait()
	}

	// Extrapolate: scale each representative's per-object misses by its
	// cluster's reference population over the representative's own
	// length, summing in fixed cluster order before rounding so the
	// result is independent of scheduling.
	estCounts := make([]uint64, nobj)
	var estUnmatched uint64
	{
		acc := make([]float64, nobj)
		var unm float64
		for c := 0; c < k; c++ {
			repRefs := spans[reps[c]].Refs
			if repRefs == 0 {
				continue
			}
			scale := float64(memberRefs[c]) / float64(repRefs)
			for id, n := range measures[c].counts {
				if n != 0 {
					acc[id] += scale * float64(n)
				}
			}
			unm += scale * float64(measures[c].unmatched)
		}
		for id, x := range acc {
			estCounts[id] = uint64(x + 0.5)
		}
		estUnmatched = uint64(unm + 0.5)
	}
	var estTotal uint64
	for _, n := range estCounts {
		estTotal += n
	}
	estTotal += estUnmatched

	tc := truth.NewCounter(om)
	tc.Merge(truth.Partial{Counts: estCounts, Total: estTotal, Unmatched: estUnmatched})

	res := &Result{
		Truth:   tc,
		Objects: om,
		Stats: cache.Stats{
			Reads:  totalRefs - writes,
			Writes: writes,
			Hits:   totalRefs - estTotal,
			Misses: estTotal,
		},
		Cycles:   p.Cycles(estTotal),
		Insts:    p.Machine.Insts,
		AppInsts: p.Machine.AppInsts,
		Plan: Plan{
			TotalRefs: totalRefs,
			Spans:     spans,
			Assign:    assign,
			Reps:      reps,
			Weights:   weights,
		},
	}
	res.Reps = make([]RepStats, k)
	for c := 0; c < k; c++ {
		res.Reps[c] = RepStats{
			Cluster:  c,
			Interval: reps[c],
			Refs:     spans[reps[c]].Refs,
			Misses:   measures[c].total,
		}
		res.SimRefs += measures[c].simRefs
	}
	p.FlushObs(res.Stats)
	flushObs(cfg.Obs, res, snk, assign)
	return res, nil
}

// flushObs records the interval-specific instruments and trace events;
// the end-of-run totals (estimated where the engine estimates) come from
// the capture pass.
func flushObs(o *obs.Obs, res *Result, snk *captureSink, assign []int) {
	if o == nil {
		return
	}
	o.IntervalCount.Add(uint64(len(res.Plan.Spans)))
	o.IntervalRepSims.Add(uint64(len(res.Reps)))
	for i, sp := range res.Plan.Spans {
		o.Emit(obs.Event{Cycle: snk.cycleAt(sp.Start), Kind: obs.EvIntervalFingerprint, A: uint64(i), B: sp.Refs})
	}
	members := make([]uint64, len(res.Reps))
	for _, c := range assign {
		members[c]++
	}
	for c := range res.Reps {
		o.Emit(obs.Event{Kind: obs.EvIntervalCluster, A: uint64(c), B: members[c]})
	}
	for _, rs := range res.Reps {
		sp := res.Plan.Spans[rs.Interval]
		o.Emit(obs.Event{Cycle: snk.cycleAt(sp.Start), Kind: obs.EvRepresentativeSim, A: uint64(rs.Interval), B: rs.Misses})
	}
}
