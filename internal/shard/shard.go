// Package shard is the set-sharded parallel ground-truth engine: it
// produces the exact per-object miss accounting of an uninstrumented
// ("plain") run — the paper's "Actual" columns — using every core of the
// host instead of one, with output bit-identical to the sequential
// simulator.
//
// The engine exploits two structural facts. First, an uninstrumented
// workload's reference stream does not depend on the cache: workloads
// advance on instruction budgets, never on cycle counts, and with no
// profiler attached no interrupt ever perturbs execution. The stream can
// therefore be captured in a single pass that skips cache simulation
// entirely (machine capture mode), charging only base costs to the
// virtual clock. Second, LRU set-associative behaviour decomposes
// exactly by set index: references mapping to different sets never
// interact, so the captured stream can be partitioned by set and each
// partition simulated independently, in parallel, with bit-identical
// hit/miss outcomes.
//
// Capture runs on the caller's goroutine while W shard workers replay
// their partitions concurrently, each against a private cache.Partition
// and a private objmap.Resolver. Merging the per-shard tallies yields a
// truth.Counter whose Ranked, Pct and merged cache.Stats equal
// the sequential engine's byte for byte, for any worker count including
// one — the differential tests enforce this.
package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"membottle/internal/cache"
	"membottle/internal/machine"
	"membottle/internal/mem"
	"membottle/internal/objmap"
	"membottle/internal/obs"
	"membottle/internal/pmu"
	"membottle/internal/truth"
)

// ErrFallback reports that the workload is outside the engine's static
// preconditions — it issued memory references during Setup (before the
// object map is synchronized) or mutated the object map mid-run (heap
// allocation, free, arena creation, or stack-frame traffic after the
// first captured reference). Callers run the sequential engine instead;
// results are identical either way, only wall-clock time differs. None
// of the built-in workloads trip this.
var ErrFallback = errors.New("shard: workload needs sequential simulation")

// Config configures one sharded ground-truth run.
type Config struct {
	// Cache is the simulated cache geometry (DefaultConfig when zero).
	Cache cache.Config
	// Costs is the virtual-cycle model (DefaultCosts when zero).
	Costs machine.CostModel
	// Workers is the requested parallelism; the engine rounds it up to a
	// power of two (the shard count) clamped to the cache's set count.
	// Zero or negative selects GOMAXPROCS.
	Workers int
	// Obs, if non-nil, receives the same end-of-run totals a sequential
	// System.FlushObs would record, plus the shard.* instruments.
	Obs *obs.Obs
}

// Result is the outcome of one sharded run, carrying everything the
// sequential plain-run path reports.
type Result struct {
	// Truth is the merged exact per-object accounting.
	Truth *truth.Counter
	// Objects is the object map the run resolved against.
	Objects *objmap.Map
	// Stats is the merged cache statistics, equal to the sequential
	// cache's Stats field for the same run.
	Stats cache.Stats
	// Cycles, Insts, AppInsts mirror the machine counters of the
	// equivalent sequential run (miss latency reconstructed from the
	// merged miss count).
	Cycles   uint64
	Insts    uint64
	AppInsts uint64
	// Shards is the number of parallel partitions actually used.
	Shards int
}

// chunkRefs is the trace chunk granularity: large enough to amortize
// channel traffic, small enough that shards stay busy concurrently with
// capture (32 Ki refs = 256 KiB of packed trace per chunk).
const chunkRefs = 32 << 10

// chunksPerShard bounds in-flight chunks per shard. Together with
// chunkRefs it caps trace memory at shards * chunksPerShard * 256 KiB
// regardless of run length: when every chunk is full the capture
// goroutine blocks until a worker returns one (backpressure), so the
// engine streams arbitrarily long runs in constant space.
const chunksPerShard = 4

// chunk is one slice of one shard's packed reference subsequence.
type chunk struct {
	packed []uint64
}

func newChunk() *chunk {
	return &chunk{packed: make([]uint64, 0, chunkRefs)}
}

func (c *chunk) reset() {
	c.packed = c.packed[:0]
}

// sink receives the captured reference stream on the capture goroutine
// and routes each reference to its shard's chunk stream. The shard of a
// reference is the low bits of its set index, so shards-1 must be a
// submask of the cache's set mask (both are powers of two).
type sink struct {
	lineShift uint
	shardMask uint64

	chans []chan *chunk
	pool  chan *chunk
	cur   []*chunk

	refs    uint64 // total captured references
	started bool   // false during Setup: references are counted, not routed
	obs     *obs.Obs
}

func (s *sink) ConsumeRefs(refs []machine.Ref, cyclesBefore uint64) {
	s.refs += uint64(len(refs))
	if !s.started {
		return
	}
	for i := range refs {
		r := &refs[i]
		sh := (uint64(r.Addr) >> s.lineShift) & s.shardMask
		c := s.cur[sh]
		if len(c.packed) == cap(c.packed) {
			c = s.rotate(sh)
		}
		c.packed = append(c.packed, mem.PackRef(r.Addr, r.Write))
	}
}

// rotate ships the shard's full chunk to its worker and installs a fresh
// one from the pool, blocking when all chunks are in flight.
func (s *sink) rotate(sh uint64) *chunk {
	s.chans[sh] <- s.cur[sh]
	if s.obs != nil {
		s.obs.ShardChunks.Inc()
	}
	c := <-s.pool
	c.reset()
	s.cur[sh] = c
	return c
}

// finish flushes every shard's partial chunk and closes the streams.
func (s *sink) finish() {
	for sh, c := range s.cur {
		if len(c.packed) > 0 {
			s.chans[sh] <- c
			if s.obs != nil {
				s.obs.ShardChunks.Inc()
			}
		}
		s.cur[sh] = nil
		close(s.chans[sh])
	}
}

// worker replays one shard's subsequence against a private cache
// partition and resolves each miss against a private object-map
// snapshot, tallying truth.Partial counts.
type worker struct {
	part    *cache.Partition
	res     *objmap.Resolver
	ch      chan *chunk
	pool    chan *chunk
	counts  []uint64
	missIdx []uint32

	refs      uint64
	total     uint64
	unmatched uint64
}

func (w *worker) run() {
	for c := range w.ch {
		w.process(c)
		w.pool <- c
	}
}

// process replays one chunk: sweep it through the partition into the
// reused missIdx buffer, then attribute each miss. This is
// allocation-free in the steady state: missIdx and counts are
// preallocated and reused.
func (w *worker) process(c *chunk) {
	w.missIdx = w.part.Sweep(c.packed, w.missIdx[:0])
	for _, idx := range w.missIdx {
		a, _ := mem.UnpackRef(c.packed[idx])
		w.total++
		obj := w.res.Lookup(a)
		if obj == nil {
			w.unmatched++
			continue
		}
		w.counts[obj.ID]++
	}
	w.refs += uint64(len(c.packed))
}

// shardCount rounds the requested worker count up to a power of two and
// clamps it to the cache's set count (itself a power of two).
func shardCount(req, sets int) int {
	w := req
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	s := 1
	for s < w && s < sets {
		s <<= 1
	}
	return s
}

// Run executes the workload uninstrumented through the sharded engine:
// capture the reference stream once, replay it set-sharded on Workers
// goroutines, merge. The returned Result is bit-identical to a
// sequential plain run of the same workload and budget. A workload
// outside the engine's static-map preconditions returns ErrFallback
// (run the sequential engine instead); context cancellation surfaces as
// the capture machine's CancelledError.
func Run(ctx context.Context, w machine.Workload, budget uint64, cfg Config) (*Result, error) {
	if cfg.Cache == (cache.Config{}) {
		cfg.Cache = cache.DefaultConfig()
	}
	if cfg.Costs == (machine.CostModel{}) {
		cfg.Costs = machine.DefaultCosts()
	}
	if err := cfg.Cache.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Cache.Size / cfg.Cache.LineSize / cfg.Cache.Assoc
	shards := shardCount(cfg.Workers, sets)

	space := mem.NewSpace()
	m := machine.New(space, cache.New(cfg.Cache), pmu.New(0), cfg.Costs)
	m.Obs = cfg.Obs
	om := objmap.New(space)
	om.BindSpace(space)

	snk := &sink{
		lineShift: lineShift(cfg.Cache.LineSize),
		shardMask: uint64(shards - 1),
		obs:       cfg.Obs,
	}
	m.SetCapture(snk)

	w.Setup(m)
	m.FlushCapture()
	om.SyncGlobals(space)
	if snk.refs > 0 {
		if o := cfg.Obs; o != nil {
			o.ShardFallbacks.Inc()
		}
		return nil, fmt.Errorf("%w: workload %s issues references during Setup", ErrFallback, w.Name())
	}

	// From here the object map must stay frozen: resolvers snapshot it
	// once per worker. Any space mutation after this point invalidates
	// the snapshots, so it demotes the run to the sequential engine.
	dirty := false
	ArmDirtyObservers(space, &dirty)

	poolCap := shards * chunksPerShard
	snk.pool = make(chan *chunk, poolCap)
	for i := 0; i < poolCap; i++ {
		snk.pool <- newChunk()
	}
	snk.chans = make([]chan *chunk, shards)
	snk.cur = make([]*chunk, shards)
	workers := make([]*worker, shards)
	nobj := len(om.Objects())
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		// Per-shard channels hold the whole pool, so worker sends back to
		// the pool and sink sends to a shard can never both block.
		snk.chans[i] = make(chan *chunk, poolCap)
		c := <-snk.pool
		c.reset()
		snk.cur[i] = c
		part, err := cache.NewPartition(cfg.Cache, i, shards)
		if err != nil {
			return nil, err
		}
		workers[i] = &worker{
			part:   part,
			res:    om.Resolver(),
			ch:     snk.chans[i],
			pool:   snk.pool,
			counts: make([]uint64, nobj),
		}
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			wk.run()
		}(workers[i])
	}
	snk.started = true

	runErr := m.RunContext(ctx, w, budget)
	m.FlushCapture()
	snk.finish()
	wg.Wait()

	if runErr != nil {
		return nil, runErr
	}
	if dirty {
		if o := cfg.Obs; o != nil {
			o.ShardFallbacks.Inc()
		}
		return nil, fmt.Errorf("%w: workload %s mutated the object map mid-run", ErrFallback, w.Name())
	}

	tc := truth.NewCounter(om)
	parts := make([]truth.Partial, shards)
	var stats cache.Stats
	for i, wk := range workers {
		parts[i] = truth.Partial{Counts: wk.counts, Total: wk.total, Unmatched: wk.unmatched}
		st := wk.part.Stats
		stats.Reads += st.Reads
		stats.Writes += st.Writes
		stats.Hits += st.Hits
		stats.Misses += st.Misses
	}
	tc.Merge(parts...)

	res := &Result{
		Truth:    tc,
		Objects:  om,
		Stats:    stats,
		Cycles:   m.Cycles + cfg.Costs.MissCycles*stats.Misses,
		Insts:    m.Insts,
		AppInsts: m.AppInsts,
		Shards:   shards,
	}
	flushObs(cfg.Obs, res, workers)
	return res, nil
}

// flushObs records the same end-of-run totals a sequential
// System.FlushObs would, so registries aggregate identically whichever
// engine served the run, plus the shard-specific instruments.
func flushObs(o *obs.Obs, res *Result, workers []*worker) {
	if o == nil {
		return
	}
	r := o.Registry
	r.Counter("sim.cycles").Add(res.Cycles)
	r.Counter("sim.insts").Add(res.Insts)
	r.Counter("sim.app_insts").Add(res.AppInsts)
	r.Counter("sim.handler_cycles").Add(0)
	r.Counter("cache.refs").Add(res.Stats.Accesses())
	r.Counter("cache.misses").Add(res.Stats.Misses)
	r.Counter("pmu.global_misses").Add(res.Stats.Misses)
	if refs := res.Stats.Accesses(); refs > 0 {
		r.Gauge("sim.last_run_miss_pct").Set(100 * float64(res.Stats.Misses) / float64(refs))
	}
	o.Runs.Inc()
	o.ShardRuns.Inc()
	for _, wk := range workers {
		o.ShardWorkerRefs.Observe(wk.refs)
		o.ShardWorkerMiss.Observe(wk.part.Stats.Misses)
	}
}

// ArmDirtyObservers chains mutation detectors onto every address-space
// observer the object map listens to, preserving the map's own hooks.
// Any capture-based engine whose resolvers snapshot a frozen object map
// (this one, and the representative-interval engine) arms these after
// Setup and demotes the run to the sequential engine when one fires.
func ArmDirtyObservers(space *mem.Space, dirty *bool) {
	prevAlloc := space.AllocObserver
	space.AllocObserver = func(base mem.Addr, size uint64) {
		if prevAlloc != nil {
			prevAlloc(base, size)
		}
		*dirty = true
	}
	prevFree := space.FreeObserver
	space.FreeObserver = func(base mem.Addr, size uint64) {
		if prevFree != nil {
			prevFree(base, size)
		}
		*dirty = true
	}
	prevArena := space.ArenaObserver
	space.ArenaObserver = func(site string, base mem.Addr, size uint64) {
		if prevArena != nil {
			prevArena(site, base, size)
		}
		*dirty = true
	}
	prevStack := space.StackObserver
	space.StackObserver = func(fn string, base mem.Addr, size uint64, push bool) {
		if prevStack != nil {
			prevStack(fn, base, size, push)
		}
		*dirty = true
	}
}

func lineShift(lineSize int) uint {
	var s uint
	for 1<<s < lineSize {
		s++
	}
	return s
}
