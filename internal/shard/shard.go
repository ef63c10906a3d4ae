// Package shard is the captured ground-truth engine: it produces the
// exact per-object miss accounting of an uninstrumented ("plain") run —
// the paper's "Actual" columns — bit-identical to the sequential
// simulator at a fraction of its cost per reference.
//
// An uninstrumented workload's reference stream does not depend on the
// cache: workloads advance on instruction budgets, never on cycle counts,
// and with no profiler attached no interrupt ever perturbs execution. The
// stream can therefore be captured in a pass that skips the live cache
// path entirely (the machine's run-compacted capture mode, driven by
// internal/capture), charging only base costs to the virtual clock, and
// simulated offline.
//
// The capture delivers mem.PackRun entries, one per maximal run of
// same-line references, in buffers of the machine's run-buffer size;
// collapsing a run loses no miss (see mem.PackRun). The engine sweeps
// each delivered buffer through one whole cache with
// cache.Cache.SweepRuns and attributes its misses, all on the caller's
// goroutine. The engine once partitioned the stream by cache set across
// worker goroutines, hence the package name; on two cores the routing
// copy and the cross-core hand-off cost more CPU than the parallel sweeps
// saved, so it no longer shards. The import path stays because the
// benchmark imports it.
package shard

import (
	"context"

	"membottle/internal/cache"
	"membottle/internal/capture"
	"membottle/internal/machine"
	"membottle/internal/mem"
	"membottle/internal/objmap"
	"membottle/internal/obs"
	"membottle/internal/truth"
)

// Config configures one captured ground-truth run.
type Config struct {
	// Cache is the simulated cache geometry (DefaultConfig when zero).
	Cache cache.Config
	// Workers is ignored: the engine sweeps on the caller's goroutine. It
	// stays only because the benchmark still sets it, until ROADMAP item
	// 13's benchmark change drops it.
	Workers int
	// Obs, if non-nil, receives the same end-of-run totals a sequential
	// System.FlushObs would record, and the run under shard.runs.
	Obs *obs.Obs
}

// Result is the outcome of one captured run, carrying everything the
// sequential plain-run path reports.
type Result struct {
	// Truth is the exact per-object accounting.
	Truth *truth.Counter
	// Objects is the object map the run resolved against.
	Objects *objmap.Map
	// Stats is the cache statistics, equal to the sequential cache's
	// Stats field for the same run.
	Stats cache.Stats
	// Cycles, Insts, AppInsts mirror the machine counters of the
	// equivalent sequential run (miss latency reconstructed from the
	// miss count).
	Cycles   uint64
	Insts    uint64
	AppInsts uint64
}

// sink receives the run-compacted stream on the capture goroutine,
// sweeps each delivered buffer through the cache and attributes the
// misses by runs: while consecutive misses fall in the object the last
// lookup returned, only a local count grows, and each change of object
// costs one Resolver.Lookup and one counter add. Only a run's first
// reference can miss, and its entry carries exactly that address, so the
// attribution matches the sequential engine's per-miss lookup. The sweep
// counts every reference as a read, so the sink tallies the writes.
type sink struct {
	cache   *cache.Cache
	res     *objmap.Resolver
	missIdx []uint32
	counts  []uint64

	// cur is the object the last lookup returned (nil outside every
	// object), [lo, hi) its extent (empty when nil, so every unmatched
	// miss looks up again), and run the misses in it not yet added.
	cur    *objmap.Object
	lo, hi mem.Addr
	run    uint64

	unmatched uint64
	writes    uint64
}

func (s *sink) ConsumeRuns(entries []uint64, _, writes, _ uint64) {
	s.writes += writes
	if cap(s.missIdx) < cap(entries) {
		// Every entry can miss: sized once to the machine's run buffer,
		// the index buffer never grows.
		s.missIdx = make([]uint32, 0, cap(entries))
	}
	s.missIdx = s.cache.SweepRuns(entries, s.missIdx[:0])
	cur, lo, hi, run := s.cur, s.lo, s.hi, s.run
	for _, idx := range s.missIdx {
		a, _ := mem.UnpackRun(entries[idx])
		if a < lo || a >= hi {
			s.add(cur, run)
			cur, run = s.res.Lookup(a), 0
			lo, hi = 0, 0
			if cur != nil {
				lo, hi = cur.Base, cur.End()
			}
		}
		run++
	}
	s.cur, s.lo, s.hi, s.run = cur, lo, hi, run
}

// add credits n misses to obj, or to the unmatched tally when obj is nil.
func (s *sink) add(obj *objmap.Object, n uint64) {
	if obj == nil {
		s.unmatched += n
		return
	}
	s.counts[obj.ID] += n
}

// Run executes the workload uninstrumented through the captured engine:
// capture the reference stream and sweep it as it is delivered. The
// returned Result is bit-identical to a sequential plain run of the same
// workload and budget. A workload outside the capture preconditions
// returns capture.ErrFallback (run the sequential engine instead);
// context cancellation surfaces as the capture machine's CancelledError.
func Run(ctx context.Context, w machine.Workload, budget uint64, cfg Config) (*Result, error) {
	p, err := capture.Setup("shard", w, cfg.Cache, cfg.Obs)
	if err != nil {
		return nil, err
	}
	// Capture mode never simulates the machine's own cache, so the sweep
	// borrows it rather than allocating a second way array.
	s := &sink{
		cache:  p.Machine.Cache,
		res:    p.Objects.Resolver(),
		counts: make([]uint64, len(p.Objects.Objects())),
	}
	if err := p.Run(ctx, budget, s); err != nil {
		return nil, err
	}
	s.add(s.cur, s.run)

	cs := s.cache.Stats
	stats := cache.Stats{
		Hits:   cs.Hits,
		Misses: cs.Misses,
		Writes: s.writes,
		Reads:  cs.Hits + cs.Misses - s.writes,
	}
	tc := truth.NewCounter(p.Objects)
	tc.Merge(truth.Partial{Counts: s.counts, Total: stats.Misses, Unmatched: s.unmatched})
	p.FlushObs(stats)
	return &Result{
		Truth:    tc,
		Objects:  p.Objects,
		Stats:    stats,
		Cycles:   p.Cycles(stats.Misses),
		Insts:    p.Machine.Insts,
		AppInsts: p.Machine.AppInsts,
	}, nil
}
