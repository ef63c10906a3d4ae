// Package capture is the front end shared by the capture-based
// ground-truth engines (internal/shard and internal/interval). Both run
// an uninstrumented workload once in the machine's run-compacted capture
// mode (machine.RunSink), which skips cache simulation and charges only
// base costs, and then simulate the captured stream offline against
// object-map resolvers that snapshot the map once. That is sound only
// while the map cannot change under the snapshots, so this package owns
// the two preconditions every such engine relies on, and the single
// ErrFallback that reports a workload outside them:
//
//   - no memory references during Setup, before the globals the workload
//     defines are synchronized into the object map;
//   - no object-map mutation during the run: heap allocation, free, arena
//     creation, or stack-frame push and pop.
package capture

import (
	"context"
	"errors"
	"fmt"

	"membottle/internal/cache"
	"membottle/internal/machine"
	"membottle/internal/mem"
	"membottle/internal/objmap"
	"membottle/internal/obs"
	"membottle/internal/pmu"
)

// ErrFallback reports that the workload is outside the capture engines'
// static preconditions (see the package doc). Callers run the sequential
// engine instead; an exact engine's results are identical either way,
// only wall-clock time differs. None of the built-in workloads trip this.
var ErrFallback = errors.New("workload needs sequential simulation")

// Pass is one capture pass: the capture machine, the object map it
// resolves against, and the precondition state between Setup and Run.
type Pass struct {
	// Cache is the run's cache geometry, cache.DefaultConfig when the
	// caller's is zero; Costs is always machine.DefaultCosts.
	Cache   cache.Config
	Costs   machine.CostModel
	Machine *machine.Machine
	Objects *objmap.Map

	engine string
	w      machine.Workload
	obs    *obs.Obs
}

// setupSink counts the references a workload issues during Setup.
type setupSink struct{ refs uint64 }

func (s *setupSink) ConsumeRuns(_ []uint64, refs, _, _ uint64) { s.refs += refs }

// Setup validates the configuration, builds the capture machine and
// object map, runs the workload's Setup and synchronizes the globals it
// defined. engine names the calling engine in fallback errors and in the
// "<engine>.fallbacks" and "<engine>.runs" obs counters; o may be nil.
func Setup(engine string, w machine.Workload, cc cache.Config, o *obs.Obs) (*Pass, error) {
	if cc == (cache.Config{}) {
		cc = cache.DefaultConfig()
	}
	costs := machine.DefaultCosts()
	if err := cc.Validate(); err != nil {
		return nil, err
	}
	space := mem.NewSpace()
	m := machine.New(space, cache.New(cc), pmu.New(0), costs)
	m.Obs = o
	om := objmap.New(space)
	om.BindSpace(space)
	p := &Pass{Cache: cc, Costs: costs, Machine: m, Objects: om, engine: engine, w: w, obs: o}

	var setup setupSink
	m.SetRunCapture(&setup)
	w.Setup(m)
	m.FlushCapture()
	om.SyncGlobals(space)
	if setup.refs > 0 {
		return nil, p.fallback("issues references during Setup")
	}
	return p, nil
}

// Run captures the workload to its budget into sink, delivering every
// buffered entry before it returns. A nil ctx selects the unsupervised
// run loop: RunContext polls the context at every Step boundary, which
// for compute-heavy workloads with tiny steps costs several times the
// capture itself. The error is the machine's CancelledError when ctx
// ends the run, else ErrFallback when the object map changed mid-run.
func (p *Pass) Run(ctx context.Context, budget uint64, sink machine.RunSink) error {
	m := p.Machine
	dirty := false
	armDirtyObservers(m.Space, &dirty)
	m.SetRunCapture(sink)
	var err error
	if ctx == nil {
		m.Run(p.w, budget)
	} else {
		err = m.RunContext(ctx, p.w, budget)
	}
	m.FlushCapture()
	if err == nil && dirty {
		err = p.fallback("mutated the object map mid-run")
	}
	return err
}

// Cycles reconstructs the equivalent full run's cycle count: the capture
// clock, which charged every reference as a hit, plus the miss latency
// of the given miss count.
func (p *Pass) Cycles(misses uint64) uint64 {
	return p.Machine.Cycles + p.Costs.MissCycles*misses
}

// FlushObs records the end-of-run totals a sequential System.FlushObs
// would for a run with the given cache statistics, so registries
// aggregate identically whichever engine served the run, and counts the
// run under "<engine>.runs".
func (p *Pass) FlushObs(st cache.Stats) {
	o := p.obs
	if o == nil {
		return
	}
	r := o.Registry
	r.Counter("sim.cycles").Add(p.Cycles(st.Misses))
	r.Counter("sim.insts").Add(p.Machine.Insts)
	r.Counter("sim.app_insts").Add(p.Machine.AppInsts)
	r.Counter("sim.handler_cycles").Add(0)
	r.Counter("cache.refs").Add(st.Accesses())
	r.Counter("cache.misses").Add(st.Misses)
	r.Counter("pmu.global_misses").Add(st.Misses)
	if refs := st.Accesses(); refs > 0 {
		r.Gauge("sim.last_run_miss_pct").Set(100 * float64(st.Misses) / float64(refs))
	}
	o.Runs.Inc()
	r.Counter(p.engine + ".runs").Inc()
}

func (p *Pass) fallback(why string) error {
	if p.obs != nil {
		p.obs.Registry.Counter(p.engine + ".fallbacks").Inc()
	}
	return fmt.Errorf("%s: %w: workload %s %s", p.engine, ErrFallback, p.w.Name(), why)
}

// armDirtyObservers chains mutation detectors onto every address-space
// observer the object map listens to, preserving the map's own hooks.
func armDirtyObservers(space *mem.Space, dirty *bool) {
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
