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
// entirely (the machine's run-compacted capture mode, driven by
// internal/capture), charging only base costs to the virtual clock.
// Second, LRU set-associative behaviour decomposes exactly by set index:
// references mapping to different sets never interact, so the captured
// stream can be partitioned by set and each partition simulated
// independently, in parallel, with bit-identical hit/miss outcomes.
//
// The capture delivers mem.PackRun entries, one per maximal run of
// same-line references; a run touches one line, so it belongs to one set
// and one shard, and collapsing it loses no miss (see mem.PackRun).
// Capture runs on the caller's goroutine and routes each entry into its
// shard's chunk stream; a chunk is a slice of up to chunkEntries run
// entries. W shard workers replay their chunks concurrently with
// cache.Cache.SweepRuns against a private partition (a whole cache fed
// only its own sets) and a private objmap.Resolver. Merging the
// per-shard tallies yields a truth.Counter whose Ranked, Pct and merged
// cache.Stats equal the sequential engine's byte for byte, for any
// worker count including one — the differential tests enforce this.
package shard

import (
	"context"
	"math/bits"
	"runtime"
	"sync"

	"membottle/internal/cache"
	"membottle/internal/capture"
	"membottle/internal/machine"
	"membottle/internal/mem"
	"membottle/internal/objmap"
	"membottle/internal/obs"
	"membottle/internal/truth"
)

// Config configures one sharded ground-truth run.
type Config struct {
	// Cache is the simulated cache geometry (DefaultConfig when zero).
	Cache cache.Config
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

// chunkEntries is the chunk granularity: large enough to amortize
// channel traffic, small enough that shards stay busy concurrently with
// capture (32 Ki run entries = 256 KiB per chunk).
const chunkEntries = 32 << 10

// chunksPerShard bounds in-flight chunks per shard. Together with
// chunkEntries it caps trace memory at shards * chunksPerShard * 256 KiB
// (1 MiB per shard) regardless of run length: when every chunk is full
// the capture goroutine blocks until a worker returns one
// (backpressure), so the engine streams arbitrarily long runs in
// constant space. Each worker's partition adds one whole cache's way
// array (512 KiB at the default geometry), so partition memory is
// shards times one cache.
const chunksPerShard = 4

// chunk is one slice of one shard's run-entry subsequence.
type chunk struct {
	entries []uint64
}

func newChunk() *chunk {
	return &chunk{entries: make([]uint64, 0, chunkEntries)}
}

// sink receives the run-compacted stream on the capture goroutine and
// routes each entry to its shard's chunk stream. The shard of an entry is
// the low bits of its set index, so shards-1 must be a submask of the
// cache's set mask (both are powers of two). The partitions' sweeps
// count every reference as a read, so the sink tallies the writes.
type sink struct {
	lineShift uint
	shardMask uint64

	chans []chan *chunk
	pool  chan *chunk
	cur   []*chunk

	writes uint64
	obs    *obs.Obs
}

func (s *sink) ConsumeRuns(entries []uint64, _, writes, _ uint64) {
	s.writes += writes
	for _, e := range entries {
		sh := (e >> mem.RunShift >> s.lineShift) & s.shardMask
		c := s.cur[sh]
		if len(c.entries) == cap(c.entries) {
			c = s.rotate(sh)
		}
		c.entries = append(c.entries, e)
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
	c.entries = c.entries[:0]
	s.cur[sh] = c
	return c
}

// finish flushes every shard's partial chunk and closes the streams.
func (s *sink) finish() {
	for sh, c := range s.cur {
		if len(c.entries) > 0 {
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
	part    *cache.Cache
	res     *objmap.Resolver
	ch      chan *chunk
	pool    chan *chunk
	counts  []uint64
	missIdx []uint32

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
// reused missIdx buffer, then attribute each miss. Only a run's first
// reference can miss, and its entry carries exactly that address, so the
// attribution matches the sequential engine's per-miss lookup. This is
// allocation-free in the steady state: missIdx and counts are
// preallocated and reused.
func (w *worker) process(c *chunk) {
	w.missIdx = w.part.SweepRuns(c.entries, w.missIdx[:0])
	for _, idx := range w.missIdx {
		a, _ := mem.UnpackRun(c.entries[idx])
		w.total++
		obj := w.res.Lookup(a)
		if obj == nil {
			w.unmatched++
			continue
		}
		w.counts[obj.ID]++
	}
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
// outside the capture preconditions returns capture.ErrFallback (run the
// sequential engine instead); context cancellation surfaces as the
// capture machine's CancelledError.
func Run(ctx context.Context, w machine.Workload, budget uint64, cfg Config) (*Result, error) {
	p, err := capture.Setup("shard", w, cfg.Cache, cfg.Obs)
	if err != nil {
		return nil, err
	}
	cc := p.Cache
	shards := shardCount(cfg.Workers, cc.Size/cc.LineSize/cc.Assoc)

	snk := &sink{
		lineShift: uint(bits.TrailingZeros(uint(cc.LineSize))),
		shardMask: uint64(shards - 1),
		obs:       cfg.Obs,
	}
	poolCap := shards * chunksPerShard
	snk.pool = make(chan *chunk, poolCap)
	for i := 0; i < poolCap; i++ {
		snk.pool <- newChunk()
	}
	snk.chans = make([]chan *chunk, shards)
	snk.cur = make([]*chunk, shards)
	workers := make([]*worker, shards)
	nobj := len(p.Objects.Objects())
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		// Per-shard channels hold the whole pool, so worker sends back to
		// the pool and sink sends to a shard can never both block.
		snk.chans[i] = make(chan *chunk, poolCap)
		snk.cur[i] = <-snk.pool
		part, err := cache.NewPartition(cc, i, shards)
		if err != nil {
			return nil, err
		}
		workers[i] = &worker{
			part:   part,
			res:    p.Objects.Resolver(),
			ch:     snk.chans[i],
			pool:   snk.pool,
			counts: make([]uint64, nobj),
			// Every entry of a chunk can miss: one buffer of that size
			// never grows.
			missIdx: make([]uint32, 0, chunkEntries),
		}
	}
	// Start the workers only once every one is built: an error above
	// returns with no goroutine blocked on a channel nobody closes.
	for _, wk := range workers {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			wk.run()
		}(wk)
	}

	runErr := p.Run(ctx, budget, snk)
	snk.finish()
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}

	tc := truth.NewCounter(p.Objects)
	parts := make([]truth.Partial, shards)
	var stats cache.Stats
	for i, wk := range workers {
		parts[i] = truth.Partial{Counts: wk.counts, Total: wk.total, Unmatched: wk.unmatched}
		stats.Hits += wk.part.Stats.Hits
		stats.Misses += wk.part.Stats.Misses
	}
	tc.Merge(parts...)
	stats.Writes = snk.writes
	stats.Reads = stats.Hits + stats.Misses - snk.writes

	res := &Result{
		Truth:    tc,
		Objects:  p.Objects,
		Stats:    stats,
		Cycles:   p.Cycles(stats.Misses),
		Insts:    p.Machine.Insts,
		AppInsts: p.Machine.AppInsts,
		Shards:   shards,
	}
	p.FlushObs(stats)
	if o := cfg.Obs; o != nil {
		for _, wk := range workers {
			o.ShardWorkerRefs.Observe(wk.part.Stats.Accesses())
			o.ShardWorkerMiss.Observe(wk.part.Stats.Misses)
		}
	}
	return res, nil
}
