// Package machine implements the virtual processor of the paper's
// simulation study. Load and store instructions are fed through the
// simulated cache (the role ATOM instrumentation plays in the paper), a
// virtual cycle counter models execution time without pipeline detail
// ("the cycle counts ... are meant to model RISC processors in general"),
// and the performance-monitor unit can raise interrupts that run
// instrumentation handlers *inside* the simulation, so their cost and
// cache perturbation are observable.
package machine

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"membottle/internal/cache"
	"membottle/internal/mem"
	"membottle/internal/obs"
	"membottle/internal/pmu"
)

// CostModel holds the virtual-cycle charges for the simulated processor.
type CostModel struct {
	// HitCycles is charged for every memory reference (the base cost of
	// the load/store instruction itself).
	HitCycles uint64
	// MissCycles is charged additionally when a reference misses.
	MissCycles uint64
	// ComputeCPI is the cycles charged per non-memory instruction.
	ComputeCPI uint64
	// InterruptCycles is the operating-system cost of delivering one
	// interrupt signal to the instrumentation. The paper measured
	// approximately 50 microseconds (8,800 cycles) per interrupt on a
	// 175 MHz SGI Octane under Irix.
	InterruptCycles uint64
	// MallocCycles approximates the library cost of one allocation call.
	MallocCycles uint64
}

// DefaultCosts mirrors the paper's setup: a generic RISC processor with
// the Octane-derived interrupt delivery cost.
func DefaultCosts() CostModel {
	return CostModel{
		HitCycles:       2,
		MissCycles:      70,
		ComputeCPI:      1,
		InterruptCycles: 8800,
		MallocCycles:    100,
	}
}

// Workload is a simulated application: it declares its memory objects in
// Setup and issues references in bounded Step chunks until the machine's
// instruction budget expires.
type Workload interface {
	// Name identifies the workload (e.g. "tomcatv").
	Name() string
	// Setup defines globals and performs initial allocations.
	Setup(m *Machine)
	// Step executes one bounded chunk (for example, one sweep of one
	// array). The machine calls Step repeatedly until the application
	// instruction budget is exhausted, so workloads must be cyclic.
	Step(m *Machine)
}

// Machine is one simulated processor executing one workload.
type Machine struct {
	Space *mem.Space
	Cache *cache.Cache
	PMU   *pmu.PMU
	Cost  CostModel

	// Cycles is the virtual cycle counter (application + instrumentation).
	Cycles uint64
	// Insts counts all simulated instructions.
	Insts uint64
	// AppInsts counts only application instructions; runs are compared at
	// equal AppInsts, as in the paper ("the applications were allowed to
	// execute for the same number of application instructions").
	AppInsts uint64
	// HandlerCycles is the portion of Cycles spent delivering and running
	// interrupt handlers.
	HandlerCycles uint64
	// Interrupts counts delivered interrupts.
	Interrupts uint64

	// MissHandler runs on miss-overflow interrupts (sampling).
	MissHandler func(*Machine)
	// TimerHandler runs on cycle-timer interrupts (n-way search).
	TimerHandler func(*Machine)
	// OnMiss, if set, observes every cache miss with exact (uncharged)
	// cost; the experiment harnesses use it for ground-truth accounting.
	OnMiss func(a mem.Addr, write bool, inHandler bool)
	// OnRef, if set, observes every application memory reference (not
	// instrumentation-handler references) at zero simulated cost. Used by
	// the trace recorder. Setting it disables the batched fast path (the
	// recorder needs per-reference instruction counts), so recording runs
	// at scalar speed.
	OnRef func(a mem.Addr, write bool)
	// OnAccess, if set, observes every reference — application and
	// instrumentation-handler alike — with its hit/miss outcome, at zero
	// simulated cost. The invariant sanitizer uses it to feed a shadow
	// cache model. Like OnRef, setting it disables the batched fast path;
	// when nil the hot path is untouched.
	OnAccess func(a mem.Addr, write, miss, inHandler bool)
	// Invariants, if set, is called at every interrupt boundary (after
	// each delivered handler returns). A non-nil result stops the run:
	// RunContext returns the error, plain Run panics with it.
	Invariants func(*Machine) error
	// OnStep, if set, is called after every completed workload Step in
	// Run/RunContext. It exists for progress reporting; it must not
	// mutate simulation state (it runs outside the simulated clock).
	OnStep func(*Machine)

	// Obs, if set, receives passive instrumentation: interrupt counts and
	// latencies, per-window reference/miss totals, and trace events. All
	// recording reads simulation state without changing it, so runs with
	// and without Obs are bit-identical; the batched hot path pays exactly
	// one nil check per AccessBatch call.
	Obs *obs.Obs

	// StopCycles, if non-zero, makes RunContext stop cleanly at the first
	// workload Step boundary where Cycles >= StopCycles, returning a
	// CancelledError with Clean set. Because Step overshoot is
	// deterministic, stopping at a cycle deadline is reproducible —
	// the basis of the checkpoint/resume byte-identity tests.
	StopCycles uint64

	// Scalar disables the batched reference fast path, forcing every
	// AccessBatch / LoadRange / StoreRange call through the per-reference
	// scalar loop. Batched and scalar execution are bit-identical (the
	// differential oracle tests enforce it); scalar mode exists as the
	// trusted baseline for those tests and for benchmarking the speedup.
	Scalar bool

	inHandler bool

	// Capture mode (see capture.go): when capturing is set every
	// reference bypasses the cache and flows to a sink instead — either
	// the per-reference RefSink (capture) or the run-compacting RunSink
	// (runSink); the two are mutually exclusive. capBuf stages scalar
	// references for the RefSink so trailing Compute calls can fold into
	// their payloads, and capCyc0 is the cycle count before capBuf[0].
	// The run* fields hold the RunSink's pending same-line run, its entry
	// buffer, and the delivery-span tallies (see captureRunBatch).
	capturing bool
	capture   RefSink
	capBuf    []Ref
	capCyc0   uint64

	runSink      RunSink
	runBuf       []uint64
	runShift     uint
	runLastLine  uint64
	runPendAddr  mem.Addr
	runPendCnt   int
	runPendWr    uint64
	runBufRefs   uint64
	runBufWrites uint64
	runCyc0      uint64

	// obsWinRefs/obsWinMisses mark the cache stats at the previous
	// interrupt delivery, so deliver() can record per-window totals.
	// Observational only: deliberately excluded from State so checkpoints
	// stay byte-identical with and without Obs attached.
	obsWinRefs   uint64
	obsWinMisses uint64

	// Supervision state: runCtx is non-nil only inside RunContext;
	// stopErr, once set, freezes the machine (references and compute
	// become no-ops) until the run loop observes it.
	runCtx  context.Context
	stopErr error
	pollIn  int // references until the next context poll
}

// New assembles a machine from its parts.
func New(space *mem.Space, c *cache.Cache, p *pmu.PMU, cost CostModel) *Machine {
	return &Machine{Space: space, Cache: c, PMU: p, Cost: cost}
}

// InHandler reports whether the machine is currently executing
// instrumentation handler code.
func (m *Machine) InHandler() bool { return m.inHandler }

// Load simulates a read of address a.
func (m *Machine) Load(a mem.Addr) { m.access(a, false) }

// Store simulates a write of address a.
func (m *Machine) Store(a mem.Addr) { m.access(a, true) }

func (m *Machine) access(a mem.Addr, write bool) {
	if m.capturing {
		m.captureRef(a, write)
		return
	}
	if m.stopErr != nil {
		return
	}
	m.Insts++
	if !m.inHandler {
		m.AppInsts++
		if m.OnRef != nil {
			m.OnRef(a, write)
		}
	}
	m.Cycles += m.Cost.HitCycles
	miss := m.Cache.Access(a, write)
	if miss {
		m.Cycles += m.Cost.MissCycles
		if m.OnMiss != nil {
			m.OnMiss(a, write, m.inHandler)
		}
		m.PMU.RecordMiss(a)
	}
	if m.OnAccess != nil {
		m.OnAccess(a, write, miss, m.inHandler)
	}
	m.PMU.TickCycles(m.Cycles)
	if !m.inHandler && m.PMU.HasPending() {
		m.deliver()
	}
	if m.runCtx != nil {
		if m.pollIn--; m.pollIn <= 0 {
			m.pollCtx()
		}
	}
}

// Compute simulates n non-memory instructions.
func (m *Machine) Compute(n uint64) {
	if m.stopErr != nil {
		return
	}
	m.Insts += n
	if !m.inHandler {
		m.AppInsts += n
	}
	m.Cycles += n * m.Cost.ComputeCPI
	if m.capturing {
		// Fold into the pending reference's payload so the RefSink sees
		// the same Ref stream an AccessBatch caller would have produced
		// (run-compacted capture carries no compute payloads, and capBuf
		// stays empty there); the clock and instruction counters were
		// already charged above.
		if len(m.capBuf) > 0 {
			m.capBuf[len(m.capBuf)-1].Compute += n
		}
		return
	}
	m.PMU.TickCycles(m.Cycles)
	if !m.inHandler && m.PMU.HasPending() {
		m.deliver()
	}
}

// deliver drains pending interrupts, charging the OS delivery cost and the
// handler's own execution (memory references and compute) to the virtual
// clock. Handler references go through the cache, perturbing it exactly as
// the paper's Figure 3 measures.
func (m *Machine) deliver() {
	for {
		kind := m.PMU.Pending()
		if kind == pmu.IrqNone {
			return
		}
		m.Interrupts++
		start := m.Cycles
		m.Cycles += m.Cost.InterruptCycles
		m.PMU.TickCycles(m.Cycles)
		m.inHandler = true
		switch kind {
		case pmu.IrqMissOverflow:
			if m.MissHandler != nil {
				m.MissHandler(m)
			}
		case pmu.IrqTimer:
			if m.TimerHandler != nil {
				m.TimerHandler(m)
			}
		}
		m.inHandler = false
		m.HandlerCycles += m.Cycles - start
		if o := m.Obs; o != nil {
			o.Interrupts.Inc()
			if kind == pmu.IrqMissOverflow {
				o.MissIrqs.Inc()
			} else {
				o.TimerIrqs.Inc()
			}
			lat := m.Cycles - start
			o.IrqLatency.Observe(lat)
			st := m.Cache.Stats
			refs, misses := st.Accesses(), st.Misses
			o.WindowRefs.Observe(refs - m.obsWinRefs)
			o.WindowMisses.Observe(misses - m.obsWinMisses)
			m.obsWinRefs, m.obsWinMisses = refs, misses
			o.Emit(obs.Event{Cycle: start, Kind: obs.EvInterrupt, A: uint64(kind), B: lat, Note: kind.String()})
		}
		if m.Invariants != nil {
			if err := m.Invariants(m); err != nil {
				m.stop(err)
				return
			}
		}
		if m.runCtx != nil {
			m.pollCtx()
		}
		if m.stopErr != nil {
			return
		}
	}
}

// Malloc allocates a simulated heap block, charging the library cost.
func (m *Machine) Malloc(size uint64) (mem.Addr, error) {
	m.Compute(m.Cost.MallocCycles)
	return m.Space.Malloc(size)
}

// MustMalloc is Malloc for setup code.
func (m *Machine) MustMalloc(size uint64) mem.Addr {
	a, err := m.Malloc(size)
	if err != nil {
		panic(err)
	}
	return a
}

// Free releases a simulated heap block.
func (m *Machine) Free(a mem.Addr) error {
	m.Compute(m.Cost.MallocCycles)
	return m.Space.Free(a)
}

// PushFrame simulates a function-call prologue: a stack frame of the
// given size is allocated for fn (stack-variable support, the paper's §5
// future work).
func (m *Machine) PushFrame(fn string, size uint64) (mem.Addr, error) {
	m.Compute(8)
	return m.Space.PushFrame(fn, size)
}

// PopFrame simulates the matching epilogue.
func (m *Machine) PopFrame() error {
	m.Compute(4)
	return m.Space.PopFrame()
}

// Run executes the workload until at least appInstBudget application
// instructions have been simulated. Setup must have been called first.
// The overshoot past the budget is bounded by one Step and is identical
// across instrumented and uninstrumented runs of the same workload, since
// handlers never change the application's instruction stream.
//
// Run has no error return; if an Invariants hook fails, Run panics with
// the error. Supervised callers use RunContext instead.
func (m *Machine) Run(w Workload, appInstBudget uint64) {
	for m.AppInsts < appInstBudget {
		w.Step(m)
		if m.stopErr != nil {
			err := m.stopErr
			m.stopErr = nil
			panic(err)
		}
		if m.OnStep != nil {
			m.OnStep(m)
		}
	}
}

// --- supervised execution ------------------------------------------------

// ErrCancelled is the sentinel matched (via errors.Is) by every
// CancelledError.
var ErrCancelled = errors.New("machine: run cancelled")

// CancelledError reports a run stopped before its budget, carrying the
// progress made so that partial results stay reportable.
type CancelledError struct {
	// Cycles and AppInsts are the machine's counters at the stop point.
	Cycles   uint64
	AppInsts uint64
	// Clean is true when the stop landed on a workload Step boundary,
	// where machine and workload state are mutually consistent — the only
	// points at which a checkpoint can be taken.
	Clean bool
	// Cause is the context error for context cancellations, nil for
	// StopCycles deadline stops.
	Cause error
}

func (e *CancelledError) Error() string {
	how := "mid-step"
	if e.Clean {
		how = "at step boundary"
	}
	return fmt.Sprintf("machine: run cancelled %s after %d cycles (%d app instructions): %v",
		how, e.Cycles, e.AppInsts, e.Cause)
}

// Unwrap exposes the context error, if any.
func (e *CancelledError) Unwrap() error { return e.Cause }

// Is matches the ErrCancelled sentinel.
func (e *CancelledError) Is(target error) bool { return target == ErrCancelled }

// ctxPollEvery is how many references may pass between context polls.
// Cancellation latency is bounded by this many simulated references plus
// one workload Step; polling never touches simulation state, so it cannot
// perturb determinism.
const ctxPollEvery = 256

// RunContext is Run under supervision: the context is polled at workload
// Step boundaries, every ctxPollEvery references, and after every
// delivered interrupt. On cancellation it returns a *CancelledError
// (matching ErrCancelled) recording the progress made; mid-step
// cancellations freeze the machine and drain the rest of the Step at zero
// cost, so counters reflect the stop point exactly. If StopCycles is set,
// the run instead stops cleanly at the first Step boundary at or past
// that cycle count. Invariants failures surface as the hook's error.
func (m *Machine) RunContext(ctx context.Context, w Workload, appInstBudget uint64) error {
	if ctx == nil {
		ctx = context.Background()
	}
	m.runCtx = ctx
	m.pollIn = ctxPollEvery
	defer func() { m.runCtx = nil }()
	for m.AppInsts < appInstBudget {
		if err := context.Cause(ctx); err != nil {
			return &CancelledError{Cycles: m.Cycles, AppInsts: m.AppInsts, Clean: true, Cause: err}
		}
		if m.StopCycles != 0 && m.Cycles >= m.StopCycles {
			return &CancelledError{Cycles: m.Cycles, AppInsts: m.AppInsts, Clean: true}
		}
		w.Step(m)
		if m.stopErr != nil {
			err := m.stopErr
			m.stopErr = nil
			return err
		}
		if m.OnStep != nil {
			m.OnStep(m)
		}
	}
	return nil
}

// stop freezes the machine on its first failure; later failures are
// discarded (the first one is the root cause).
func (m *Machine) stop(err error) {
	if m.stopErr == nil {
		m.stopErr = err
	}
}

// pollCtx performs a non-blocking context check and resets the poll
// countdown.
func (m *Machine) pollCtx() {
	m.pollIn = ctxPollEvery
	if m.stopErr != nil {
		return
	}
	select {
	case <-m.runCtx.Done():
		m.stop(&CancelledError{Cycles: m.Cycles, AppInsts: m.AppInsts, Cause: context.Cause(m.runCtx)})
	default:
	}
}

// --- batched hot path ----------------------------------------------------

// Ref is one reference in a batch; see mem.Ref.
type Ref = mem.Ref

// batchChunk bounds the RefSink staging buffer (capBuf), and with it the
// slices a captured range is delivered in.
const batchChunk = 1024

// AccessBatch issues a batch of consecutive references, each optionally
// followed by its Compute payload of compute instructions. It simulates
// exactly the scalar sequence
//
//	for _, r := range refs { Load/Store(r.Addr); Compute(r.Compute) }
//
// but runs hit stretches (and the fill of the first missing line) through
// the cache's branch-light AccessBatch, falling back to the scalar slow
// path only for per-miss bookkeeping and at PMU cycle events (timer
// deadlines, timeshare rotations), so interrupt delivery points, cycle
// counts, and cache state stay bit-identical to scalar execution.
//
// While a cycle event is armed, rest holds the all-hit cycle cost of the
// unconsumed references (see allHitCycles): computed once, the first
// time an event is armed, and kept current as references are consumed.
// When the whole remainder would end before the event even if it all
// hit, capRefs cannot cut the batch, so its per-reference scan is
// skipped. Only that cost is cached; the event itself is re-read every
// iteration, because handlers delivered mid-batch re-arm or disarm the
// timer and fault hooks slip its deadline.
func (m *Machine) AccessBatch(refs []Ref) {
	if m.capturing {
		m.captureBatch(refs)
		return
	}
	if m.Scalar || m.OnRef != nil || m.OnAccess != nil {
		m.scalarRefs(refs)
		return
	}
	// The single per-batch observability probe: one nil check when Obs is
	// off (the overhead-guard benchmark enforces this stays cheap).
	if o := m.Obs; o != nil {
		o.Batches.Inc()
		o.BatchRefs.Add(uint64(len(refs)))
	}
	var rest uint64 // meaningful only once restKnown is set
	restKnown := false
	for len(refs) > 0 {
		if m.stopErr != nil {
			return
		}
		if m.runCtx != nil {
			// The fast path bypasses access(), so amortize the context
			// poll over the references consumed per iteration instead.
			if m.pollIn <= 0 {
				m.pollCtx()
			}
		}
		n := len(refs)
		tickAfter := false
		if ev, armed := m.PMU.NextCycleEvent(); armed {
			if !restKnown {
				rest, restKnown = allHitCycles(refs, m.Cost), true
			}
			if !endsBefore(m.Cycles, rest, ev) {
				n, tickAfter = capRefs(refs, m.Cycles, ev, m.Cost)
			}
			if n == 0 {
				// The event fires during the next reference: take the
				// scalar path so the tick lands mid-element, as it would
				// in an unbatched run.
				m.scalarRefs(refs[:1])
				rest -= m.Cost.HitCycles + refs[0].Compute*m.Cost.ComputeCPI
				refs = refs[1:]
				continue
			}
		}
		done, compute, missed := m.Cache.AccessBatch(refs[:n])
		if done > 0 {
			insts := uint64(done) + compute
			m.Insts += insts
			if !m.inHandler {
				m.AppInsts += insts
			}
			charged := uint64(done)*m.Cost.HitCycles + compute*m.Cost.ComputeCPI
			m.Cycles += charged
			rest -= charged
			if m.runCtx != nil {
				m.pollIn -= done
			}
		}
		if missed {
			// refs[done-1] missed; the cache already filled the line, so
			// only the machine-side slow path remains: miss latency, miss
			// attribution, PMU bookkeeping, interrupt delivery, and the
			// reference's trailing compute (charged after any interrupt,
			// as in scalar execution).
			r := &refs[done-1]
			m.Cycles += m.Cost.MissCycles
			if m.OnMiss != nil {
				m.OnMiss(r.Addr, r.Write, m.inHandler)
			}
			m.PMU.RecordMiss(r.Addr)
			m.PMU.TickCycles(m.Cycles)
			if !m.inHandler && m.PMU.HasPending() {
				m.deliver()
			}
			if r.Compute > 0 {
				m.Compute(r.Compute)
				rest -= r.Compute * m.Cost.ComputeCPI
			}
			refs = refs[done:]
			continue
		}
		refs = refs[n:]
		if tickAfter {
			// The batch was cut at a reference whose trailing compute
			// crosses the PMU event; tick with exactly the cycle count a
			// scalar Compute call would have reported.
			m.PMU.TickCycles(m.Cycles)
			if !m.inHandler && m.PMU.HasPending() {
				m.deliver()
			}
		}
	}
}

// scalarRefs issues refs one at a time through the scalar path.
func (m *Machine) scalarRefs(refs []Ref) {
	for i := range refs {
		m.access(refs[i].Addr, refs[i].Write)
		if refs[i].Compute > 0 {
			m.Compute(refs[i].Compute)
		}
	}
}

// capRefs bounds a batch so that no PMU cycle event falls inside the hit
// fast path, assuming every reference hits (misses end the batch earlier
// anyway). Scalar execution ticks the PMU after each reference and after
// each Compute call; all skipped ticks must be strictly before ev to be
// no-ops. If the event lands on a reference's access tick the reference
// is excluded (the caller runs it scalar); if it lands on the trailing
// compute tick the reference stays in the batch and the caller ticks at
// the batch boundary, which is the identical observation point.
func capRefs(refs []Ref, cycles, ev uint64, cost CostModel) (int, bool) {
	if ev <= cycles {
		return 0, false
	}
	for i := range refs {
		cycles += cost.HitCycles
		if cycles >= ev {
			return i, false
		}
		if c := refs[i].Compute; c > 0 {
			cycles += c * cost.ComputeCPI
			if cycles >= ev {
				return i + 1, true
			}
		}
	}
	return len(refs), false
}

// allHitCycles is the cycle cost of refs if every reference hits: the
// clock value capRefs would reach after the batch's last tick, minus the
// starting count.
func allHitCycles(refs []Ref, cost CostModel) uint64 {
	var compute uint64
	for i := range refs {
		compute += refs[i].Compute
	}
	return uint64(len(refs))*cost.HitCycles + compute*cost.ComputeCPI
}

// endsBefore reports whether a batch starting at cycles with all-hit cost
// rest takes its last tick strictly before the event at ev. capRefs'
// ticks are non-decreasing and end at cycles+rest, so then it would
// return (len(refs), false) and need not run.
func endsBefore(cycles, rest, ev uint64) bool {
	return ev > cycles && cycles+rest < ev
}

// LoadRange streams reads over [base, base+bytes) with the given stride,
// a helper for array-sweep workload kernels. computePer is the number of
// compute instructions charged per element.
func (m *Machine) LoadRange(base mem.Addr, bytes, stride, computePer uint64) {
	m.rangeRefs(base, bytes, stride, computePer, false)
}

// StoreRange streams writes over [base, base+bytes) with the given stride.
func (m *Machine) StoreRange(base mem.Addr, bytes, stride, computePer uint64) {
	m.rangeRefs(base, bytes, stride, computePer, true)
}

func (m *Machine) rangeRefs(base mem.Addr, bytes, stride, computePer uint64, write bool) {
	switch {
	case m.Scalar || m.OnRef != nil || m.OnAccess != nil:
		for off := uint64(0); off < bytes; off += stride {
			m.access(base+mem.Addr(off), write)
			if computePer > 0 {
				m.Compute(computePer)
			}
		}
	case m.runSink != nil:
		// Run-compacted capture folds the strided range straight into
		// packed run entries.
		m.captureRunRange(base, bytes, stride, computePer, write)
	case m.capturing:
		m.captureRange(base, bytes, stride, computePer, write)
	default:
		m.liveRange(base, bytes, stride, computePer, write)
	}
}

// StorePairRange streams writes over the same offsets of two ranges in
// lockstep, a helper for loops that update two arrays per iteration. It
// simulates exactly
//
//	for off := 0; off < bytes; off += stride { Store(a+off); Store(b+off); Compute(computePer) }
//
// with the Compute call skipped when computePer is 0.
func (m *Machine) StorePairRange(a, b mem.Addr, bytes, stride, computePer uint64) {
	switch {
	case m.Scalar || m.OnRef != nil || m.OnAccess != nil:
		for off := uint64(0); off < bytes; off += stride {
			m.access(a+mem.Addr(off), true)
			m.access(b+mem.Addr(off), true)
			if computePer > 0 {
				m.Compute(computePer)
			}
		}
	case m.runSink != nil:
		m.captureRunPairs(a, b, bytes, stride, computePer)
	case m.capturing:
		m.capturePairs(a, b, bytes, stride, computePer)
	default:
		m.livePairRange(a, b, bytes, stride, computePer)
	}
}

// liveRange simulates a strided range one cache line at a time. It
// simulates exactly the scalar sequence
//
//	for off := 0; off < bytes; off += stride { Load/Store(base+off); Compute(computePer) }
//
// but probes the cache once per same-line run (Cache.AccessRun): only a
// run's first reference can miss, so a hit consumes the whole run and
// is charged in bulk. A miss consumes one reference and takes the scalar
// path's miss bookkeeping; the rest of the line is then probed again,
// because a handler delivered at that miss may have evicted it. While a
// PMU cycle event is armed, a run is cut in closed form before the first
// reference whose access or compute tick would reach the event, and that
// reference runs through the scalar path (see DESIGN.md, "Strided
// ranges: one probe per same-line run").
func (m *Machine) liveRange(base mem.Addr, bytes, stride, computePer uint64, write bool) {
	if bytes == 0 {
		return
	}
	// The single per-range observability probe.
	if o := m.Obs; o != nil {
		o.Batches.Inc()
		o.BatchRefs.Add((bytes + stride - 1) / stride)
	}
	lineSize := uint64(m.Cache.Config().LineSize)
	shift := uint(bits.TrailingZeros64(lineSize))
	// perLine is the reference count of a run that starts within one
	// stride of its line's start and ends at the line's end, when the
	// stride divides the line; 0 means every run takes the division.
	var perLine uint64
	if lineSize%stride == 0 {
		perLine = lineSize / stride
	}
	cost := m.Cost.HitCycles + computePer*m.Cost.ComputeCPI
	insts := 1 + computePer
	off, end := uint64(base), uint64(base)+bytes
	for off < end {
		// left counts the range's references to the line holding off.
		lineEnd := (off>>shift + 1) << shift
		left := perLine
		if lineEnd > end || off-(lineEnd-lineSize) >= stride || perLine == 0 {
			left = (min(lineEnd, end) - off + stride - 1) / stride
		}
		for left > 0 {
			if m.stopErr != nil {
				return
			}
			if m.runCtx != nil && m.pollIn <= 0 {
				m.pollCtx()
			}
			cnt := left
			if ev, armed := m.PMU.NextCycleEvent(); armed && m.Cycles+cnt*cost >= ev {
				// The run's last tick (at Cycles+cnt*cost if all hit)
				// would reach the event: keep the j references whose
				// ticks all land before it.
				var j uint64
				if ev > m.Cycles && cost > 0 {
					j = (ev - m.Cycles - 1) / cost
				}
				if j == 0 {
					// The event lands on this reference's access or
					// compute tick: run it scalar so the tick observes
					// the same clock.
					m.access(mem.Addr(off), write)
					if computePer > 0 {
						m.Compute(computePer)
					}
					off += stride
					left--
					continue
				}
				cnt = j
			}
			a := mem.Addr(off)
			done, missed := m.Cache.AccessRun(a, cnt, write)
			off += done * stride
			left -= done
			if m.runCtx != nil {
				m.pollIn -= int(done)
			}
			if !missed {
				m.Insts += done * insts
				if !m.inHandler {
					m.AppInsts += done * insts
				}
				m.Cycles += done * cost
				continue
			}
			// The cache already filled the line; what remains is the
			// scalar path's miss bookkeeping, then the reference's own
			// compute (charged after any interrupt, as in scalar
			// execution). The rest of the line is probed again: a
			// handler delivered here may have evicted it.
			m.Insts++
			if !m.inHandler {
				m.AppInsts++
			}
			m.Cycles += m.Cost.HitCycles + m.Cost.MissCycles
			if m.OnMiss != nil {
				m.OnMiss(a, write, m.inHandler)
			}
			m.PMU.RecordMiss(a)
			m.PMU.TickCycles(m.Cycles)
			if !m.inHandler && m.PMU.HasPending() {
				m.deliver()
			}
			if computePer > 0 {
				m.Compute(computePer)
			}
		}
	}
}

// livePairRange is StorePairRange's live path. It walks element runs:
// a run ends where a's or b's line ends, or, while a PMU cycle event is
// armed, before the first element whose access or compute tick would
// reach the event, as in liveRange. When both lines are resident the
// whole run hits, and Cache.AccessPairRun credits it in closed form.
// Otherwise, and at an event, one element runs through the scalar path,
// which owns every miss, interrupt and handler-driven eviction.
func (m *Machine) livePairRange(a, b mem.Addr, bytes, stride, computePer uint64) {
	if bytes == 0 {
		return
	}
	if o := m.Obs; o != nil {
		o.Batches.Inc()
		o.BatchRefs.Add(2 * ((bytes + stride - 1) / stride))
	}
	lineSize := uint64(m.Cache.Config().LineSize)
	cost := 2*m.Cost.HitCycles + computePer*m.Cost.ComputeCPI
	insts := 2 + computePer
	for off := uint64(0); off < bytes; {
		if m.stopErr != nil {
			return
		}
		if m.runCtx != nil && m.pollIn <= 0 {
			m.pollCtx()
		}
		pa, pb := a+mem.Addr(off), b+mem.Addr(off)
		room := min(lineSize-uint64(pa)&(lineSize-1), lineSize-uint64(pb)&(lineSize-1), bytes-off)
		k := (room + stride - 1) / stride
		if ev, armed := m.PMU.NextCycleEvent(); armed && m.Cycles+k*cost >= ev {
			// Keep the elements whose ticks all land before the event;
			// with none, the element holding the event's tick runs
			// scalar.
			k = 0
			if ev > m.Cycles && cost > 0 {
				k = (ev - m.Cycles - 1) / cost
			}
		}
		if k == 0 || !m.Cache.AccessPairRun(pa, pb, k, true) {
			m.access(pa, true)
			m.access(pb, true)
			if computePer > 0 {
				m.Compute(computePer)
			}
			off += stride
			continue
		}
		m.Insts += k * insts
		if !m.inHandler {
			m.AppInsts += k * insts
		}
		m.Cycles += k * cost
		if m.runCtx != nil {
			m.pollIn -= int(2 * k)
		}
		off += k * stride
	}
}

// --- checkpoint state ----------------------------------------------------

// State is the machine's own serializable snapshot (its counters; the
// cache, PMU, and address-space components snapshot themselves).
type State struct {
	Cycles        uint64
	Insts         uint64
	AppInsts      uint64
	HandlerCycles uint64
	Interrupts    uint64
}

// State captures the machine's counters. It is only meaningful at a
// workload Step boundary outside any handler (Run/RunContext guarantee
// this between Steps).
func (m *Machine) State() State {
	return State{
		Cycles:        m.Cycles,
		Insts:         m.Insts,
		AppInsts:      m.AppInsts,
		HandlerCycles: m.HandlerCycles,
		Interrupts:    m.Interrupts,
	}
}

// SetState restores counters captured by State.
func (m *Machine) SetState(s State) {
	m.Cycles = s.Cycles
	m.Insts = s.Insts
	m.AppInsts = s.AppInsts
	m.HandlerCycles = s.HandlerCycles
	m.Interrupts = s.Interrupts
}

// Checkpointer is implemented by workloads and profilers whose private
// state (sweep cursors, sample tables, generator positions) must survive
// a checkpoint/resume round trip. Implementations must encode
// deterministically: the same state always yields the same bytes.
type Checkpointer interface {
	// CheckpointState serializes the implementation's private state.
	CheckpointState() ([]byte, error)
	// RestoreState restores state serialized by CheckpointState on a
	// freshly constructed (Setup-complete) instance.
	RestoreState(data []byte) error
}
