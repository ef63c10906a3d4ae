package core

import (
	"fmt"
	"math/rand"

	"membottle/internal/machine"
	"membottle/internal/objmap"
	"membottle/internal/obs"
	"membottle/internal/shadow"
)

// IntervalMode selects how the sampler spaces its miss-overflow interrupts.
type IntervalMode int

const (
	// IntervalFixed interrupts every exactly Interval misses. Vulnerable
	// to resonance with periodic application access patterns (§3.1).
	IntervalFixed IntervalMode = iota
	// IntervalPrime rounds Interval up to the nearest prime, the paper's
	// first proposed fix for resonance.
	IntervalPrime
	// IntervalRandom draws each interval uniformly from
	// [Interval/2, 3*Interval/2), the paper's second proposed fix.
	IntervalRandom
)

func (m IntervalMode) String() string {
	switch m {
	case IntervalFixed:
		return "fixed"
	case IntervalPrime:
		return "prime"
	case IntervalRandom:
		return "random"
	default:
		return "unknown"
	}
}

// The sampler's fixed parameters.
const (
	// samplerStateLines is the number of cache lines of handler state
	// touched on every interrupt (trap frame, saved registers, profiler
	// root). 24 lines (~1.5 KB) model a realistic signal-handler
	// footprint.
	samplerStateLines = 24
	// samplerSpareObjects is the room the shadow object table leaves
	// beyond the objects present at install time, for later heap
	// allocations.
	samplerSpareObjects = 1024
	// samplerHandlerCompute is the fixed compute-instruction cost charged
	// per sample on top of memory accesses.
	samplerHandlerCompute = 60
	// samplerAutoTuneEvery is the number of samples between tuning
	// decisions (TargetOverheadPct only).
	samplerAutoTuneEvery = 32
	// samplerMinInterval bounds auto-tuning from below.
	samplerMinInterval = 100
)

// SamplerConfig configures the miss-address sampling technique. The
// remaining parameters are the package constants above.
type SamplerConfig struct {
	// Interval is the number of cache misses between samples (the paper
	// evaluates 1,000 to 1,000,000; Table 1 uses 50,000). Default 50,000.
	Interval uint64
	// Mode selects fixed, prime, or pseudo-random spacing.
	Mode IntervalMode
	// Seed drives the random mode's generator.
	Seed int64
	// TargetOverheadPct, if nonzero, auto-tunes the sampling interval so
	// the handler consumes roughly this percentage of total cycles — the
	// paper's §5 proposal to adjust the "arbitrarily chosen" sampling
	// frequency automatically "in order to achieve greater accuracy and
	// efficiency". The interval is re-evaluated every
	// samplerAutoTuneEvery (32) samples and never drops below
	// samplerMinInterval (100).
	TargetOverheadPct float64
}

// Sampler implements cache-miss address sampling (§2.1): associate a count
// with each memory object; interrupt after some number of misses; match
// the address of the last cache miss to the object containing it and
// increment its count.
type Sampler struct {
	cfg SamplerConfig
	om  *objmap.Map
	rng *rand.Rand

	counts  []uint64 // per object ID; grown as heap objects appear
	samples uint64   // total interrupts taken
	matched uint64   // samples that resolved to a known object

	interval uint64 // effective base interval after mode adjustment

	// draws is the run-length-encoded history of Int63n arguments the
	// random mode has consumed, kept so a checkpoint restore can replay
	// the generator to the same position (math/rand state is not
	// serializable). The argument sequence fully determines consumption,
	// so replaying it from the same seed reproduces the stream exactly.
	draws []drawRun

	// Shadow-resident structures (perturbation model).
	state    shadow.State
	objTable shadow.Array
	countArr shadow.Array

	installed bool
}

// NewSampler returns an uninstalled sampler.
func NewSampler(cfg SamplerConfig) *Sampler {
	return &Sampler{cfg: cfg}
}

// Interval returns the effective base sampling interval (after prime
// adjustment), valid after Install.
func (s *Sampler) Interval() uint64 { return s.interval }

// Samples returns the number of samples taken so far.
func (s *Sampler) Samples() uint64 { return s.samples }

// Matched returns how many samples resolved to a known program object.
func (s *Sampler) Matched() uint64 { return s.matched }

// Install implements Profiler.
func (s *Sampler) Install(m *machine.Machine, om *objmap.Map) error {
	if s.installed {
		return fmt.Errorf("core: sampler already installed")
	}
	if s.cfg.Interval == 0 {
		s.cfg.Interval = 50_000
	}
	s.om = om
	s.rng = rand.New(rand.NewSource(s.cfg.Seed))
	s.counts = make([]uint64, om.Len())

	arena := shadow.NewArena(m.Space)
	var err error
	if s.state, err = shadow.NewState(arena, samplerStateLines, m.Cache.Config().LineSize); err != nil {
		return err
	}
	maxObjects := uint64(om.Len() + samplerSpareObjects)
	// One 32-byte extent record per object in the shadow map...
	if s.objTable, err = arena.Array(maxObjects, 32); err != nil {
		return err
	}
	// ...and one 8-byte counter per object.
	if s.countArr, err = arena.Array(maxObjects, 8); err != nil {
		return err
	}

	s.interval = s.cfg.Interval
	switch s.cfg.Mode {
	case IntervalPrime:
		s.interval = NextPrime(s.cfg.Interval)
	case IntervalRandom:
		// start with a random draw; rearmed per sample
	}
	m.PMU.SetMissInterrupt(s.nextInterval())
	m.MissHandler = s.handle
	s.installed = true
	return nil
}

func (s *Sampler) nextInterval() uint64 {
	if s.cfg.Mode == IntervalRandom {
		lo := s.interval / 2
		if lo == 0 {
			lo = 1
		}
		s.recordDraw(s.interval)
		return lo + uint64(s.rng.Int63n(int64(s.interval)))
	}
	return s.interval
}

// drawRun records n consecutive Int63n(arg) draws.
type drawRun struct{ arg, n uint64 }

// recordDraw appends one draw to the run-length history.
func (s *Sampler) recordDraw(arg uint64) {
	if k := len(s.draws); k > 0 && s.draws[k-1].arg == arg {
		s.draws[k-1].n++
		return
	}
	s.draws = append(s.draws, drawRun{arg: arg, n: 1})
}

// handle is the miss-overflow interrupt handler. All memory it touches is
// shadow memory charged to the simulated cache, and its compute cost is
// charged to the virtual clock.
func (s *Sampler) handle(m *machine.Machine) {
	s.samples++
	// Latch the sampled address first: the handler's own memory traffic
	// also misses and would otherwise overwrite the last-miss register.
	// (Hardware latches the address when the overflow interrupt is
	// raised; this models that latch.)
	addr := m.PMU.LastMissAddr

	// Entry/exit footprint: trap frame and profiler state.
	s.state.Touch(m)
	m.Compute(samplerHandlerCompute)

	obj := s.om.Lookup(addr)

	// Charge the object-map probes: a binary search over the shadow
	// object table to the position of the object found (or the table
	// midpoint region for a failed search).
	idx := uint64(0)
	if obj != nil {
		idx = uint64(obj.ID)
	}
	probes := shadow.BinarySearchProbes(m, s.objTable, uint64(s.om.Len()), idx)
	m.Compute(uint64(probes) * 4)

	if obj != nil {
		if obj.ID >= len(s.counts) {
			grown := make([]uint64, s.om.Len())
			copy(grown, s.counts)
			s.counts = grown
		}
		s.counts[obj.ID]++
		s.matched++
		// Read-modify-write of the object's shadow counter.
		s.countArr.Load(m, uint64(obj.ID))
		s.countArr.Store(m, uint64(obj.ID))
	}
	if o := m.Obs; o != nil {
		o.Samples.Inc()
		matched := uint64(0)
		note := ""
		if obj != nil {
			o.SamplesMatched.Inc()
			matched = 1
			note = obj.Name
		}
		o.Emit(obs.Event{Cycle: m.Cycles, Kind: obs.EvSample, A: uint64(addr), B: matched, Note: note})
	}

	if s.cfg.TargetOverheadPct > 0 && s.tuneDue() {
		s.autoTune(m)
	}
	if s.cfg.Mode == IntervalRandom {
		m.PMU.RearmMissInterrupt(s.nextInterval())
	}
}

// tuneDue schedules tuning decisions: at the early power-of-two sample
// counts (4, 8, 16, ...) so a badly misconfigured interval is corrected
// quickly, then every samplerAutoTuneEvery samples.
func (s *Sampler) tuneDue() bool {
	if s.samples%samplerAutoTuneEvery == 0 {
		return true
	}
	return s.samples >= 4 && s.samples < samplerAutoTuneEvery && s.samples&(s.samples-1) == 0
}

// autoTune solves directly for the interval that would spend the target
// percentage of cycles in the handler: with per-sample handler cost h and
// miss rate r (misses/cycle), overhead(K) = 100*r*h/K, so the ideal
// interval is K* = 100*r*h/target.
func (s *Sampler) autoTune(m *machine.Machine) {
	if m.Cycles == 0 || s.samples == 0 {
		return
	}
	h := float64(m.HandlerCycles) / float64(s.samples)
	r := float64(m.PMU.GlobalMisses) / float64(m.Cycles)
	ideal := 100 * r * h / s.cfg.TargetOverheadPct
	next := uint64(ideal)
	if next < samplerMinInterval {
		next = samplerMinInterval
	}
	// Preserve resonance protection: an auto-chosen interval must not
	// trade the prime-spacing guarantee away for a round number.
	if s.cfg.Mode == IntervalPrime {
		next = NextPrime(next)
	}
	if next == s.interval {
		return
	}
	s.interval = next
	m.Compute(60) // the tuning decision itself costs something
	m.PMU.RearmMissInterrupt(s.interval)
}

// Estimates implements Profiler: objects ranked by sampled miss share.
func (s *Sampler) Estimates() []Estimate {
	if s.samples == 0 {
		return nil
	}
	var out []Estimate
	for id, c := range s.counts {
		if c == 0 {
			continue
		}
		pct := 100 * float64(c) / float64(s.samples)
		if pct < MinReportPct {
			continue
		}
		out = append(out, Estimate{Object: s.om.ByID(id), Pct: pct, Samples: c})
	}
	sortEstimates(out)
	return out
}

// Done implements Profiler; sampling runs for the whole execution.
func (s *Sampler) Done() bool { return false }
