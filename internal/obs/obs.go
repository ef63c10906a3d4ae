package obs

// Obs bundles one metrics registry and (optionally) one event tracer,
// with the simulation engine's instruments pre-resolved so recording a
// metric is a single field access plus one atomic add — no name lookups
// on any per-interrupt or per-batch path.
//
// A nil *Obs means observability is off. Every producer guards with a
// single nil check (the machine's batched hot path performs exactly one
// per batch), and the Emit helper is additionally safe on a nil receiver
// so rare-event call sites need no guard of their own.
//
// One Obs may be shared by many simulated systems at once (the experiment
// harness runs application cells in parallel against one registry); all
// updates are atomic and the tracer serializes emissions internally.
type Obs struct {
	Registry *Registry
	Tracer   *Tracer // nil when tracing is disabled

	// Machine instruments.
	Interrupts   *Counter   // sim.interrupts: delivered PMU interrupts
	MissIrqs     *Counter   // sim.miss_irqs: miss-overflow deliveries
	TimerIrqs    *Counter   // sim.timer_irqs: cycle-timer deliveries
	IrqLatency   *Histogram // sim.irq_latency_cycles: delivery + handler cost
	WindowRefs   *Histogram // sim.window_refs: references between interrupts
	WindowMisses *Histogram // sim.window_misses: misses between interrupts
	Batches      *Counter   // sim.batches: entries into the batched path, one per AccessBatch call or strided range
	BatchRefs    *Counter   // sim.batch_refs: references entering the batched path

	// Profiler instruments (core).
	Samples        *Counter // core.samples: miss-address samples taken
	SamplesMatched *Counter // core.samples_matched: samples resolved to an object
	SearchRounds   *Counter // core.search_rounds: completed measurement intervals
	RegionSplits   *Counter // core.region_splits
	CounterClamps  *Counter // core.counter_clamps: implausible PMU readings discarded

	// Harness instruments.
	SanitizeSweeps  *Counter   // sanitize.sweeps: full cache-metadata sweeps
	Checkpoints     *Counter   // checkpoint.writes
	CheckpointBytes *Histogram // checkpoint.bytes
	FaultsInjected  *Counter   // faults.injected: faults delivered across runs
	Runs            *Counter   // sim.runs: systems flushed into this registry

	// Representative-interval engine instruments. The capture engines'
	// once-per-run counters, <engine>.runs (plain runs served) and
	// <engine>.fallbacks (runs demoted to the sequential engine), are
	// registered by New and updated by name in internal/capture.
	IntervalCount   *Counter // interval.intervals: intervals fingerprinted across runs
	IntervalRepSims *Counter // interval.rep_sims: cluster representatives simulated

	// Persistent result-store instruments.
	StoreHits         *Counter // store.hits: results served from disk
	StoreMisses       *Counter // store.misses: lookups that fell through to compute
	StoreBytesRead    *Counter // store.bytes_read: record bytes read on hits
	StoreBytesWritten *Counter // store.bytes_written: record bytes written
	StoreEvictions    *Counter // store.evictions: entries removed by the size cap
	StoreQuarantined  *Counter // store.quarantined: corrupt entries moved aside
}

// Options configures New.
type Options struct {
	// TraceCap is the event ring capacity; <= 0 selects DefaultTraceCap.
	TraceCap int
	// NoTrace disables the event tracer entirely (metrics only).
	NoTrace bool
}

// Default histogram bucket bounds. Latency buckets start at the paper's
// 8,800-cycle interrupt delivery cost; window buckets grow geometrically
// to cover sampling intervals from hundreds to millions of references.
var (
	LatencyBuckets    = []uint64{8_800, 10_000, 12_000, 16_000, 24_000, 48_000, 96_000}
	WindowBuckets     = []uint64{64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576}
	CheckpointBuckets = []uint64{1 << 12, 1 << 16, 1 << 20, 4 << 20, 16 << 20, 64 << 20}
)

// New builds an Obs with a fresh registry and (unless opt.NoTrace) a
// fresh tracer, resolving every simulation instrument once.
func New(opt Options) *Obs {
	o := &Obs{Registry: NewRegistry()}
	if !opt.NoTrace {
		o.Tracer = NewTracer(opt.TraceCap)
	}
	r := o.Registry
	o.Interrupts = r.Counter("sim.interrupts")
	o.MissIrqs = r.Counter("sim.miss_irqs")
	o.TimerIrqs = r.Counter("sim.timer_irqs")
	o.IrqLatency = r.Histogram("sim.irq_latency_cycles", LatencyBuckets)
	o.WindowRefs = r.Histogram("sim.window_refs", WindowBuckets)
	o.WindowMisses = r.Histogram("sim.window_misses", WindowBuckets)
	o.Batches = r.Counter("sim.batches")
	o.BatchRefs = r.Counter("sim.batch_refs")
	o.Samples = r.Counter("core.samples")
	o.SamplesMatched = r.Counter("core.samples_matched")
	o.SearchRounds = r.Counter("core.search_rounds")
	o.RegionSplits = r.Counter("core.region_splits")
	o.CounterClamps = r.Counter("core.counter_clamps")
	o.SanitizeSweeps = r.Counter("sanitize.sweeps")
	o.Checkpoints = r.Counter("checkpoint.writes")
	o.CheckpointBytes = r.Histogram("checkpoint.bytes", CheckpointBuckets)
	o.FaultsInjected = r.Counter("faults.injected")
	o.Runs = r.Counter("sim.runs")
	for _, name := range []string{"shard.runs", "shard.fallbacks", "interval.runs", "interval.fallbacks"} {
		r.Counter(name)
	}
	o.IntervalCount = r.Counter("interval.intervals")
	o.IntervalRepSims = r.Counter("interval.rep_sims")
	o.StoreHits = r.Counter("store.hits")
	o.StoreMisses = r.Counter("store.misses")
	o.StoreBytesRead = r.Counter("store.bytes_read")
	o.StoreBytesWritten = r.Counter("store.bytes_written")
	o.StoreEvictions = r.Counter("store.evictions")
	o.StoreQuarantined = r.Counter("store.quarantined")
	return o
}

// Emit records one event in the tracer. Safe to call on a nil Obs or with
// no tracer attached; both are no-ops.
func (o *Obs) Emit(ev Event) {
	if o == nil || o.Tracer == nil {
		return
	}
	o.Tracer.Emit(ev)
}

// Snapshot returns the registry's current values (empty on nil).
func (o *Obs) Snapshot() Snapshot {
	if o == nil {
		return Snapshot{}
	}
	return o.Registry.Snapshot()
}
