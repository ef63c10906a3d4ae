// Package membottle reproduces the system of Buck & Hollingsworth,
// "Using Hardware Performance Monitors to Isolate Memory Bottlenecks"
// (SC 2000): a simulation environment in which two data-centric cache
// profiling techniques — cache-miss address sampling and an n-way search
// over the address space using base/bounds miss counters — attribute
// cache misses to source-level data structures.
//
// A System bundles a simulated machine (virtual CPU + set-associative
// cache + performance-monitor unit) with an object map. Load a workload
// (one of the built-in SPEC95 recreations or your own machine.Workload),
// attach a Profiler (NewSampler or NewSearch), Run, and read the ranked
// Estimates:
//
//	sys := membottle.NewSystem(membottle.DefaultConfig())
//	if err := sys.LoadWorkloadByName("tomcatv"); err != nil { ... }
//	prof := membottle.NewSearch(membottle.SearchConfig{N: 10})
//	if err := sys.Attach(prof); err != nil { ... }
//	sys.Run(100_000_000)
//	for _, e := range prof.Estimates() {
//	    fmt.Printf("%-8s %5.1f%%\n", e.Object.Name, e.Pct)
//	}
//
// The profiler's own code runs *inside* the simulation: its handler
// cycles (including the 8,800-cycle interrupt delivery cost the paper
// measured on an SGI Octane) and its cache footprint are part of the
// simulated execution, so instrumentation cost (Figure 4) and cache
// perturbation (Figure 3) are measurable via Overhead and the cache
// statistics.
//
// SearchConfig and SamplerConfig expose the paper's parameters for each
// technique (counters and initial interval for the search, miss interval
// and spacing mode for sampling), the ablation switches, and the §5
// automatic variants. The rest are fixed constants of the profilers: the
// search grows idle intervals by 1.5x up to 16x, stops below a 1% residual
// or after 100,000 iterations, and refines with 6 final passes at 12x the
// interval; the sampler charges 60 instructions and a 24-line handler
// footprint per sample. Timesharing rotates every 100,000 cycles.
package membottle

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"membottle/internal/cache"
	"membottle/internal/checkpoint"
	"membottle/internal/core"
	"membottle/internal/faults"
	"membottle/internal/machine"
	"membottle/internal/mem"
	"membottle/internal/objmap"
	"membottle/internal/obs"
	"membottle/internal/pmu"
	"membottle/internal/sanitize"
	"membottle/internal/trace"
	"membottle/internal/truth"
	"membottle/internal/workload"
)

// Re-exported configuration and result types, so that typical use needs
// only this package.
type (
	// CacheConfig describes the simulated cache geometry.
	CacheConfig = cache.Config
	// CostModel holds the virtual-cycle charges of the simulated CPU.
	CostModel = machine.CostModel
	// Machine is the simulated processor workloads run on; custom
	// workloads receive it in Setup and Step and issue references through
	// its Load, Store, Compute, and Malloc methods.
	Machine = machine.Machine
	// Workload is a simulated application; implement it to profile your
	// own access patterns.
	Workload = machine.Workload
	// Profiler is either technique: *Sampler or *Search.
	Profiler = core.Profiler
	// Estimate is one ranked result row.
	Estimate = core.Estimate
	// SamplerConfig configures miss-address sampling (§2.1 of the paper).
	SamplerConfig = core.SamplerConfig
	// SearchConfig configures the n-way search (§2.2 of the paper).
	SearchConfig = core.SearchConfig
	// Sampler is the miss-address sampling profiler.
	Sampler = core.Sampler
	// Search is the n-way search profiler.
	Search = core.Search
	// IntervalMode selects fixed, prime, or random sample spacing.
	IntervalMode = core.IntervalMode
	// GroundTruth is the exact per-object accounting of a run.
	GroundTruth = truth.Counter
	// ObjectMap resolves addresses to program objects; reachable as
	// System.Objects for frame-layout registration and inspection.
	ObjectMap = objmap.Map
	// Object is one profiled program object (global, heap block, arena
	// group, or stack variable).
	Object = objmap.Object
	// LocalVar declares one local variable of a frame layout, standing in
	// for debug information (stack-variable support, the paper's §5).
	LocalVar = objmap.LocalVar
	// Arena groups related heap allocations contiguously so the search
	// can treat them as a unit (the paper's §5); create via
	// System.Machine.Space.NewArena.
	Arena = mem.Arena
	// FaultConfig configures deterministic fault injection (Config.Faults).
	FaultConfig = faults.Config
	// FaultStats counts the faults an injector actually delivered.
	FaultStats = faults.Stats
	// InjectedError attributes a run failure to injected faults.
	InjectedError = faults.InjectedError
	// InvariantError reports a sanitizer cross-check violation.
	InvariantError = sanitize.InvariantError
	// CancelledError reports a run stopped by context cancellation or a
	// StopCycles limit, carrying the progress made.
	CancelledError = machine.CancelledError
	// Obs is the observability bundle (metrics registry + event tracer)
	// attached via Config.Obs; see internal/obs.
	Obs = obs.Obs
	// ObsOptions configures NewObs.
	ObsOptions = obs.Options
	// TraceEvent is one entry in the observability event trace.
	TraceEvent = obs.Event
	// MetricsSnapshot is a point-in-time copy of the metrics registry.
	MetricsSnapshot = obs.Snapshot
)

// Sentinel errors, matched with errors.Is.
var (
	// ErrCancelled matches every CancelledError.
	ErrCancelled = machine.ErrCancelled
	// ErrInvariant matches every InvariantError.
	ErrInvariant = sanitize.ErrInvariant
	// ErrInjected matches every InjectedError.
	ErrInjected = faults.ErrInjected
	// ErrNotCheckpointable reports that the loaded workload or attached
	// profiler has no serializable state representation (the n-way search
	// deliberately does not support checkpointing).
	ErrNotCheckpointable = errors.New("membottle: component does not support checkpointing")
	// ErrBadCheckpoint matches corrupt or truncated checkpoint data.
	ErrBadCheckpoint = checkpoint.ErrCorrupt
	// ErrSnapshotMismatch reports a well-formed checkpoint that does not
	// belong to the system it is being restored into.
	ErrSnapshotMismatch = errors.New("membottle: checkpoint does not match this system")
)

// ParseFaults parses a fault-injection spec like
// "drop-miss=0.1,zero-counter=0.01,seed=7,apps=tomcatv+swim".
func ParseFaults(spec string) (*FaultConfig, error) { return faults.Parse(spec) }

// AggregateByName merges estimates whose objects share a name — all
// activations of the same stack local, or all blocks of one allocation
// site (the paper's §5 aggregation proposal).
func AggregateByName(es []Estimate) []Estimate { return core.AggregateByName(es) }

// Interval modes for SamplerConfig.Mode.
const (
	IntervalFixed  = core.IntervalFixed
	IntervalPrime  = core.IntervalPrime
	IntervalRandom = core.IntervalRandom
)

// NewObs constructs an observability bundle for Config.Obs. One bundle
// may be shared by several systems (parallel experiment cells); all
// recording is concurrency-safe.
func NewObs(opt ObsOptions) *Obs { return obs.New(opt) }

// NewSampler constructs a sampling profiler.
func NewSampler(cfg SamplerConfig) *Sampler { return core.NewSampler(cfg) }

// NewSearch constructs an n-way search profiler.
func NewSearch(cfg SearchConfig) *Search { return core.NewSearch(cfg) }

// Workloads lists the built-in workload names (the paper's seven SPEC95
// applications plus the Figure 2 synthetic scenario).
func Workloads() []string { return workload.Names() }

// NewWorkload instantiates a built-in workload by name.
func NewWorkload(name string) (Workload, error) { return workload.New(name) }

// Config assembles a simulated system.
type Config struct {
	// Cache is the simulated cache geometry. Defaults to the paper's
	// evaluation cache: 2 MB, 64-byte lines, 4-way, LRU.
	Cache CacheConfig
	// Costs is the virtual-cycle model. Defaults include the paper's
	// 8,800-cycle interrupt delivery cost.
	Costs CostModel
	// Counters is the number of PMU region counters (plus the implicit
	// global counter). The paper assumes ten. Sampling needs none.
	Counters int
	// Timeshare, if positive, emulates having only that many physical
	// conditional counters, multiplexed across the programmed regions
	// every timeshareQuantum cycles (the paper's "timesharing the single
	// conditional counter" alternative).
	Timeshare int
	// SkipTruth disables the exact ground-truth accounting (the "Actual"
	// column) that NewSystem attaches by default. Truth costs an object
	// lookup on every miss, so runs whose truth nobody reads set it: the
	// experiments' sampling and search runs carry no truth unless
	// sanitizing, since the sanitizer cross-checks against it.
	SkipTruth bool
	// ScalarRefs disables the batched reference fast path, forcing every
	// memory reference through the per-reference scalar loop. Batched and
	// scalar execution are bit-identical (the differential oracle tests
	// enforce it); scalar mode is the trusted baseline those tests and
	// cmd/mbbench's table1, figure3 and replay families compare against.
	ScalarRefs bool
	// Sanitize enables the invariant sanitizer: a shadow cache model and
	// per-interrupt cross-checks of PMU counters against cache statistics
	// and ground truth. Divergence surfaces as an InvariantError from
	// RunContext. Forces the scalar reference path; leave off for
	// performance runs.
	Sanitize bool
	// Faults, if non-nil and enabled, installs a deterministic fault
	// injector on the PMU (and on trace replay) for the workloads it
	// applies to: dropped or delayed interrupts, corrupted counters,
	// corrupted trace batches. Profilers must survive with degraded
	// estimates; the sanitizer's simulator invariants still hold.
	Faults *FaultConfig
	// Obs, if non-nil, attaches passive observability: metrics counters,
	// latency histograms, and a bounded event trace. Recording never
	// mutates simulation state, so runs with and without Obs produce
	// bit-identical results; with Obs nil the batched hot path pays one
	// nil check per batch.
	Obs *Obs
}

// timeshareQuantum is how many cycles each group of regions holds the
// physical counters under Config.Timeshare before they rotate on.
const timeshareQuantum = 100_000

// DefaultConfig returns the paper's evaluation configuration.
func DefaultConfig() Config {
	return Config{
		Cache:    cache.DefaultConfig(),
		Costs:    machine.DefaultCosts(),
		Counters: 10,
	}
}

// System is one simulated machine with an object map and (optionally)
// ground-truth accounting.
type System struct {
	Machine *machine.Machine
	Objects *objmap.Map
	// Truth is exact per-object accounting, nil if SkipTruth was set.
	Truth *GroundTruth

	cfg        Config
	appName    string
	workload   Workload
	profiler   Profiler
	injector   *faults.Injector
	checker    *sanitize.Checker
	obsFlushed bool

	// ckCache/ckTruth are scratch snapshot buffers reused across
	// Checkpoint calls: periodic checkpoint writers snapshot the same
	// geometry every time, so after the first write the way copy (32K
	// entries for the paper's 2 MB cache) and the truth counts copy stop
	// allocating.
	ckCache cache.State
	ckTruth truth.State
}

// NewSystem builds an empty simulated system.
func NewSystem(cfg Config) *System {
	if cfg.Cache == (CacheConfig{}) {
		cfg.Cache = cache.DefaultConfig()
	}
	if cfg.Costs == (CostModel{}) {
		cfg.Costs = machine.DefaultCosts()
	}
	space := newSpace()
	c := cache.New(cfg.Cache)
	p := pmu.New(cfg.Counters)
	if cfg.Timeshare > 0 {
		p.EnableTimesharing(cfg.Timeshare, timeshareQuantum)
	}
	m := machine.New(space, c, p, cfg.Costs)
	m.Scalar = cfg.ScalarRefs
	m.Obs = cfg.Obs
	om := objmap.New(space)
	om.BindSpace(space)
	sys := &System{Machine: m, Objects: om, cfg: cfg}
	if !cfg.SkipTruth {
		sys.Truth = truth.Attach(m, om)
	}
	if cfg.Sanitize {
		sys.checker = sanitize.Attach(m, sys.Truth)
	}
	return sys
}

// LoadWorkload runs the workload's Setup and ingests its globals and heap
// blocks into the object map.
func (s *System) LoadWorkload(w Workload) {
	s.workload = w
	w.Setup(s.Machine)
	s.Objects.SyncGlobals(s.Machine.Space)
	s.wireFaults()
}

// LoadWorkloadByName is LoadWorkload for the built-in registry.
func (s *System) LoadWorkloadByName(name string) error {
	w, err := workload.New(name)
	if err != nil {
		return err
	}
	s.appName = name
	s.LoadWorkload(w)
	return nil
}

// wireFaults installs the fault injector when the configuration enables
// faults for the loaded workload. Custom workloads (LoadWorkload with no
// registry name) match an empty fault Apps filter only.
func (s *System) wireFaults() {
	f := s.cfg.Faults
	if f == nil || !f.Enabled() || !f.AppliesTo(s.appName) {
		return
	}
	inj := faults.New(*f)
	s.injector = inj
	s.Machine.PMU.Faults = inj
	if r, ok := s.workload.(*trace.Replay); ok {
		r.Faults = inj
	}
}

// FaultStats returns the counts of faults actually injected so far, or
// nil when no injector is active for the loaded workload.
func (s *System) FaultStats() *FaultStats {
	if s.injector == nil {
		return nil
	}
	st := s.injector.Stats
	return &st
}

// SanitizeReport returns the number of interrupt-boundary invariant
// checks performed and violations raised; both zero when Config.Sanitize
// is off.
func (s *System) SanitizeReport() (boundaries, violations uint64) {
	if s.checker == nil {
		return 0, 0
	}
	return s.checker.Boundaries(), s.checker.Violations()
}

// Attach installs a profiler. Call after LoadWorkload so the profiler
// sees the populated object map.
func (s *System) Attach(p Profiler) error {
	if s.workload == nil {
		return fmt.Errorf("membottle: attach after LoadWorkload, so the profiler sees the object map")
	}
	if err := p.Install(s.Machine, s.Objects); err != nil {
		return err
	}
	s.profiler = p
	return nil
}

// Run simulates until the application has executed at least budget
// instructions (instrumentation handler work does not count toward the
// budget, matching the paper's equal-application-instructions comparison).
func (s *System) Run(budget uint64) {
	s.Machine.Run(s.workload, budget)
}

// RunContext is Run under supervision: the run stops cleanly (at a
// workload step boundary) when ctx is cancelled or the machine's
// StopCycles limit is reached, returning a CancelledError with the
// progress made; sanitizer violations surface as an InvariantError
// instead of a panic. A nil ctx is treated as context.Background().
// Passing budget 0 with Machine.StopCycles set runs to the cycle limit.
func (s *System) RunContext(ctx context.Context, budget uint64) error {
	err := s.Machine.RunContext(ctx, s.workload, budget)
	if s.checker != nil {
		if ferr := s.checker.Final(); ferr != nil {
			err = errors.Join(err, ferr)
		}
	}
	return err
}

// workloadName identifies the loaded workload in checkpoints: the
// registry name when loaded by name, the concrete Go type otherwise.
func (s *System) workloadName() string {
	if s.appName != "" {
		return s.appName
	}
	return fmt.Sprintf("%T", s.workload)
}

// Checkpoint writes a versioned snapshot of the run to w. Call it only
// when the machine is at a workload step boundary — after Run returned,
// or after RunContext returned a clean CancelledError (Clean true);
// snapshots taken mid-step are rejected at restore by the fingerprint
// checks or resume divergently. Returns ErrNotCheckpointable when the
// workload or attached profiler cannot serialize its state (notably the
// n-way search profiler).
func (s *System) Checkpoint(w io.Writer) error {
	if s.workload == nil {
		return fmt.Errorf("membottle: no workload loaded")
	}
	wc, ok := s.workload.(machine.Checkpointer)
	if !ok {
		return fmt.Errorf("%w: workload %s", ErrNotCheckpointable, s.workloadName())
	}
	wdata, err := wc.CheckpointState()
	if err != nil {
		return err
	}
	s.Machine.Cache.StateInto(&s.ckCache)
	snap := &checkpoint.Snapshot{
		Machine:  s.Machine.State(),
		Cache:    s.ckCache,
		PMU:      s.Machine.PMU.State(),
		Space:    checkpoint.Fingerprint(s.Machine.Space),
		Workload: checkpoint.Opaque{Name: s.workloadName(), Data: wdata},
	}
	if s.Truth != nil {
		if err := s.Truth.StateInto(&s.ckTruth); err != nil {
			return fmt.Errorf("%w: %w", ErrNotCheckpointable, err)
		}
		snap.Truth = &s.ckTruth
	}
	if s.profiler != nil {
		pc, ok := s.profiler.(machine.Checkpointer)
		if !ok {
			return fmt.Errorf("%w: profiler %T", ErrNotCheckpointable, s.profiler)
		}
		pdata, err := pc.CheckpointState()
		if err != nil {
			return err
		}
		snap.Profiler = &checkpoint.Opaque{Name: fmt.Sprintf("%T", s.profiler), Data: pdata}
	}
	if o := s.Machine.Obs; o != nil {
		cw := &countingWriter{w: w}
		if err := checkpoint.Write(cw, snap); err != nil {
			return err
		}
		o.Checkpoints.Inc()
		o.CheckpointBytes.Observe(cw.n)
		o.Emit(obs.Event{Cycle: s.Machine.Cycles, Kind: obs.EvCheckpoint, A: cw.n})
		return nil
	}
	return checkpoint.Write(w, snap)
}

// countingWriter tallies bytes for the checkpoint-size histogram.
type countingWriter struct {
	w io.Writer
	n uint64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += uint64(n)
	return n, err
}

// Restore resumes a snapshot written by Checkpoint. The receiving system
// must be built the same way as the one that was snapshotted: same
// Config, same workload loaded (Setup re-runs deterministically and is
// verified against the snapshot's address-space fingerprint), and the
// same profiler attached. Corrupt data returns a typed checkpoint error
// (ErrBadCheckpoint and friends); a well-formed snapshot for a different
// setup returns ErrSnapshotMismatch.
func (s *System) Restore(r io.Reader) error {
	if s.workload == nil {
		return fmt.Errorf("membottle: load the workload before restoring")
	}
	snap, err := checkpoint.Read(r)
	if err != nil {
		return err
	}
	if got := checkpoint.Fingerprint(s.Machine.Space); got != snap.Space {
		return fmt.Errorf("%w: address-space fingerprint %+v differs from snapshot %+v",
			ErrSnapshotMismatch, got, snap.Space)
	}
	if name := s.workloadName(); snap.Workload.Name != name {
		return fmt.Errorf("%w: snapshot is for workload %q, system has %q",
			ErrSnapshotMismatch, snap.Workload.Name, name)
	}
	wc, ok := s.workload.(machine.Checkpointer)
	if !ok {
		return fmt.Errorf("%w: workload %s", ErrNotCheckpointable, s.workloadName())
	}
	if err := wc.RestoreState(snap.Workload.Data); err != nil {
		return err
	}
	if snap.Profiler != nil {
		if s.profiler == nil {
			return fmt.Errorf("%w: snapshot carries profiler state %q but no profiler is attached",
				ErrSnapshotMismatch, snap.Profiler.Name)
		}
		pc, ok := s.profiler.(machine.Checkpointer)
		if !ok {
			return fmt.Errorf("%w: profiler %T", ErrNotCheckpointable, s.profiler)
		}
		if name := fmt.Sprintf("%T", s.profiler); name != snap.Profiler.Name {
			return fmt.Errorf("%w: snapshot profiler %q, attached %q",
				ErrSnapshotMismatch, snap.Profiler.Name, name)
		}
		if err := pc.RestoreState(snap.Profiler.Data); err != nil {
			return err
		}
	} else if s.profiler != nil {
		return fmt.Errorf("%w: snapshot has no profiler state but %T is attached",
			ErrSnapshotMismatch, s.profiler)
	}
	if err := s.Machine.Cache.SetState(snap.Cache); err != nil {
		return err
	}
	if err := s.Machine.PMU.SetState(snap.PMU); err != nil {
		return err
	}
	s.Machine.SetState(snap.Machine)
	if snap.Truth != nil {
		if s.Truth == nil {
			return fmt.Errorf("%w: snapshot tracks ground truth but SkipTruth is set", ErrSnapshotMismatch)
		}
		if err := s.Truth.SetState(*snap.Truth); err != nil {
			return err
		}
	} else if s.Truth != nil {
		return fmt.Errorf("%w: snapshot lacks ground-truth state but this system tracks it", ErrSnapshotMismatch)
	}
	if s.checker != nil {
		s.checker.Resync()
	}
	return nil
}

// Overhead summarizes the instrumentation cost of the run so far.
type Overhead struct {
	// Interrupts delivered to the profiler.
	Interrupts uint64
	// HandlerCycles spent delivering and executing handlers.
	HandlerCycles uint64
	// TotalCycles of the whole simulation.
	TotalCycles uint64
	// TotalMisses in the cache, application and instrumentation combined.
	TotalMisses uint64
	// AppInstructions executed.
	AppInstructions uint64
}

// SlowdownPct returns handler cycles as a percentage of non-handler time,
// the quantity of the paper's Figure 4.
func (o Overhead) SlowdownPct() float64 {
	app := o.TotalCycles - o.HandlerCycles
	if app == 0 {
		return 0
	}
	return 100 * float64(o.HandlerCycles) / float64(app)
}

// InterruptsPerBillionCycles is the paper's §3.3 interrupt-rate metric.
func (o Overhead) InterruptsPerBillionCycles() float64 {
	if o.TotalCycles == 0 {
		return 0
	}
	return float64(o.Interrupts) * 1e9 / float64(o.TotalCycles)
}

// Overhead reports the run's instrumentation cost.
func (s *System) Overhead() Overhead {
	return Overhead{
		Interrupts:      s.Machine.Interrupts,
		HandlerCycles:   s.Machine.HandlerCycles,
		TotalCycles:     s.Machine.Cycles,
		TotalMisses:     s.Machine.Cache.Stats.Misses,
		AppInstructions: s.Machine.AppInsts,
	}
}

// FlushObs records the run's end-of-run totals into the attached
// observability registry: cycle and instruction counters, cache and PMU
// totals, fault and sanitizer tallies, and a final miss-rate gauge.
// Idempotent per system — a second call is a no-op — and a no-op when no
// Obs is configured. Call it after Run/RunContext completes.
func (s *System) FlushObs() {
	o := s.Machine.Obs
	if o == nil || s.obsFlushed {
		return
	}
	s.obsFlushed = true
	m := s.Machine
	r := o.Registry
	r.Counter("sim.cycles").Add(m.Cycles)
	r.Counter("sim.insts").Add(m.Insts)
	r.Counter("sim.app_insts").Add(m.AppInsts)
	r.Counter("sim.handler_cycles").Add(m.HandlerCycles)
	st := m.Cache.Stats
	r.Counter("cache.refs").Add(st.Accesses())
	r.Counter("cache.misses").Add(st.Misses)
	r.Counter("pmu.global_misses").Add(m.PMU.GlobalMisses)
	if fs := s.FaultStats(); fs != nil {
		o.FaultsInjected.Add(fs.Total())
	}
	if b, v := s.SanitizeReport(); b > 0 || v > 0 {
		r.Counter("sanitize.boundaries").Add(b)
		r.Counter("sanitize.violations").Add(v)
	}
	if refs := st.Accesses(); refs > 0 {
		r.Gauge("sim.last_run_miss_pct").Set(100 * float64(st.Misses) / float64(refs))
	}
	o.Runs.Inc()
}

// AttachProgress installs a periodic progress line driven by the
// machine's step-boundary hook: percent of budget completed, cycle count,
// wall-clock simulation rate, and the live miss rate since the previous
// line. Output is wall-clock rate-limited to one line per `every` and
// written outside the simulation, so it cannot perturb determinism.
// Chains any existing OnStep hook. Returns the Progress for line counts.
func (s *System) AttachProgress(w io.Writer, every time.Duration, budget uint64) *obs.Progress {
	p := &obs.Progress{W: w, Every: every}
	prev := s.Machine.OnStep
	s.Machine.OnStep = func(m *machine.Machine) {
		if prev != nil {
			prev(m)
		}
		st := m.Cache.Stats
		p.Tick(m.Cycles, m.AppInsts, budget, st.Accesses(), st.Misses)
	}
	return p
}
