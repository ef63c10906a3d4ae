// Package pmu models the hardware performance-monitoring support the paper
// assumes: a software-selectable number of cache-miss counters, each with a
// pair of base and bounds registers restricting counting to an address
// region (as on the Intel Itanium); a global miss counter; a register
// holding the address of the last cache miss; an interrupt that fires after
// a chosen number of misses (as on the MIPS R10000/R12000 and Compaq
// Alpha); and a cycle-count interrupt used as the search technique's
// iteration timer.
//
// The PMU is driven by the simulated machine: RecordMiss is called on every
// cache miss and TickCycles on every advance of the virtual cycle counter.
// Real base/bounds hardware checks every region in parallel at no cost; the
// model keeps both calls cheap instead. RecordMiss scans only the enabled
// region counters, through an index that every mutator of a counter's
// Enabled flag rebuilds, and TickCycles compares against one cached cycle
// count (the next timer deadline or timeshare rotation) before doing any
// work.
package pmu

import (
	"fmt"

	"membottle/internal/mem"
)

// IrqKind identifies the source of a pending interrupt.
type IrqKind int

const (
	// IrqNone means no interrupt is pending.
	IrqNone IrqKind = iota
	// IrqMissOverflow fires when the programmed number of global cache
	// misses has occurred since the last rearm (sampling support).
	IrqMissOverflow
	// IrqTimer fires when the virtual cycle counter passes the programmed
	// deadline (n-way search iteration timer).
	IrqTimer
)

func (k IrqKind) String() string {
	switch k {
	case IrqNone:
		return "none"
	case IrqMissOverflow:
		return "miss-overflow"
	case IrqTimer:
		return "timer"
	default:
		return "unknown"
	}
}

// FaultHook lets a deterministic fault injector perturb the PMU at the
// exact points where real monitoring hardware fails: interrupt raise and
// counter update. All three methods are consulted at identical points by
// the scalar and batched engines, so fault-injected runs remain
// bit-identical across engines for a given seed.
type FaultHook interface {
	// MissOverflow is consulted when a miss-overflow interrupt is about
	// to be raised. drop discards the interrupt (the countdown re-arms);
	// a nonzero delay postpones it by that many further misses.
	MissOverflow() (drop bool, delay uint64)
	// Timer is consulted when the cycle timer reaches its deadline. drop
	// disarms the timer without firing; a nonzero delayCycles pushes the
	// deadline that far into the future.
	Timer() (drop bool, delayCycles uint64)
	// CorruptCounters runs after every recorded miss and may mutate the
	// region counters' counts in place (zero or saturate a count). It
	// must not change Enabled, Base or Bound: programming goes through
	// SetRegion and DisableCounter, which keep the enabled index.
	CorruptCounters(cs []Counter)
}

// Counter is one region cache-miss counter with base/bounds registers.
// A counter counts a miss when Enabled and Base <= addr < Bound.
type Counter struct {
	Base    mem.Addr
	Bound   mem.Addr
	Count   uint64
	Enabled bool
}

// Matches reports whether the counter's region covers a.
func (c *Counter) Matches(a mem.Addr) bool {
	return c.Enabled && a >= c.Base && a < c.Bound
}

// PMU is the performance-monitor state for one simulated processor.
type PMU struct {
	counters []Counter

	// enabled holds the indices of the enabled region counters in
	// ascending order; RecordMiss scans only these. New, SetRegion,
	// DisableCounter, DisableAllCounters, SetState and Reset rebuild it
	// in place (its capacity is the counter count, so it never grows).
	enabled []int

	// nextEv is the earliest cycle count at which TickCycles has any
	// effect: the armed timer deadline or the next timeshare rotation,
	// whichever comes first, and noEvent when neither is set. SetTimer,
	// EnableTimesharing, SetState, Reset and the slow tick path (timer
	// fire, fault delay, rotation) recompute it. A zero value is merely
	// conservative: the next tick takes the slow path and recomputes it.
	nextEv uint64

	// GlobalMisses counts every cache miss regardless of address — the
	// "additional cache miss counter ... for the entire address space".
	GlobalMisses uint64

	// LastMissAddr is the address that caused the most recent cache miss,
	// the Itanium-style feature sampling relies on.
	LastMissAddr mem.Addr

	// Miss-overflow interrupt state.
	missThreshold uint64 // 0 = disabled
	missesToGo    uint64

	// Cycle-timer interrupt state.
	timerDeadline uint64 // 0 = disabled
	timerArmed    bool

	pendingMiss  bool
	pendingTimer bool

	// Interrupt delivery statistics.
	MissIrqs  uint64
	TimerIrqs uint64

	// Faults, if set, is consulted at interrupt raise points and after
	// every counter update. Nil (the default) costs one predictable
	// branch per miss and none on the cycle path.
	Faults FaultHook

	mux *timeshareMux // nil unless timesharing is enabled
}

// New returns a PMU with n region counters (plus the implicit global
// counter). n may be zero for sampling-only use.
func New(n int) *PMU {
	return &PMU{counters: make([]Counter, n), enabled: make([]int, 0, n), nextEv: noEvent}
}

// noEvent is nextEv's value when no cycle event is armed.
const noEvent = ^uint64(0)

// NumCounters returns the number of region counters.
func (p *PMU) NumCounters() int { return len(p.counters) }

// SetRegion programs counter i to count misses in [base, bound) and resets
// its count.
func (p *PMU) SetRegion(i int, base, bound mem.Addr) {
	p.counters[i] = Counter{Base: base, Bound: bound, Enabled: true}
	p.reindex()
}

// DisableCounter turns region counter i off and resets its count.
func (p *PMU) DisableCounter(i int) {
	p.counters[i] = Counter{}
	p.reindex()
}

// DisableAllCounters turns every region counter off.
func (p *PMU) DisableAllCounters() {
	clear(p.counters)
	p.enabled = p.enabled[:0]
}

// reindex rebuilds the enabled-counter index from the counters' Enabled
// flags, reusing its backing array.
func (p *PMU) reindex() {
	p.enabled = p.enabled[:0]
	for i := range p.counters {
		if p.counters[i].Enabled {
			p.enabled = append(p.enabled, i)
		}
	}
}

// schedule recomputes nextEv from the timer and timeshare state.
func (p *PMU) schedule() {
	ev := noEvent
	if p.timerArmed {
		ev = p.timerDeadline
	}
	if p.mux != nil && p.mux.rotateAt < ev {
		ev = p.mux.rotateAt
	}
	p.nextEv = ev
}

// ReadCounter returns the current count of region counter i, corrected for
// timeshare scaling when multiplexing is enabled.
func (p *PMU) ReadCounter(i int) uint64 {
	if p.mux != nil {
		return p.mux.read(i)
	}
	return p.counters[i].Count
}

// SetMissInterrupt arms the miss-overflow interrupt to fire every 'every'
// global misses. every == 0 disables it.
func (p *PMU) SetMissInterrupt(every uint64) {
	p.missThreshold = every
	p.missesToGo = every
}

// RearmMissInterrupt resets the countdown, optionally with a new interval
// (pass 0 to keep the current one). Samplers with pseudo-random intervals
// call this with a fresh interval from their generator on each interrupt.
func (p *PMU) RearmMissInterrupt(every uint64) {
	if every != 0 {
		p.missThreshold = every
	}
	p.missesToGo = p.missThreshold
}

// SetTimer arms the cycle timer to fire when the cycle count reaches
// deadline. A zero deadline disables the timer.
func (p *PMU) SetTimer(deadline uint64) {
	p.timerDeadline = deadline
	p.timerArmed = deadline != 0
	p.schedule()
}

// RecordMiss is called by the machine on every cache miss. It updates the
// global counter, the matching region counters, and the last-miss-address
// register, and may mark a miss-overflow interrupt pending.
func (p *PMU) RecordMiss(a mem.Addr) {
	p.GlobalMisses++
	p.LastMissAddr = a
	if p.mux != nil {
		p.mux.recordMiss(a)
	} else {
		for _, i := range p.enabled {
			if c := &p.counters[i]; a >= c.Base && a < c.Bound {
				c.Count++
			}
		}
	}
	if p.Faults != nil {
		p.Faults.CorruptCounters(p.counters)
	}
	if p.missThreshold != 0 {
		p.missesToGo--
		if p.missesToGo == 0 {
			p.missesToGo = p.missThreshold
			if p.Faults != nil {
				if drop, delay := p.Faults.MissOverflow(); drop {
					return
				} else if delay > 0 {
					p.missesToGo = delay
					return
				}
			}
			p.pendingMiss = true
		}
	}
}

// TickCycles is called by the machine whenever the virtual cycle counter
// advances. It may mark a timer interrupt pending and drives counter
// multiplexing when timesharing is enabled. Below the cached next event
// it is a single compare, small enough to inline into the machine's
// loops.
func (p *PMU) TickCycles(cycles uint64) {
	if cycles >= p.nextEv {
		p.tick(cycles)
	}
}

// tick is TickCycles' slow path, taken once the cycle count reaches
// nextEv: it resolves the timer and the timeshare rotation, then
// recomputes nextEv.
func (p *PMU) tick(cycles uint64) {
	if p.timerArmed && cycles >= p.timerDeadline {
		p.timerFire(cycles)
	}
	if p.mux != nil {
		p.mux.tick(cycles)
	}
	p.schedule()
}

// timerFire resolves a reached timer deadline: normally it marks the
// interrupt pending and disarms; a fault hook may instead drop it (disarm
// without firing) or slip the deadline forward.
func (p *PMU) timerFire(cycles uint64) {
	if p.Faults != nil {
		if drop, delay := p.Faults.Timer(); drop {
			p.timerArmed = false
			return
		} else if delay > 0 {
			p.timerDeadline = cycles + delay
			return
		}
	}
	p.pendingTimer = true
	p.timerArmed = false
}

// NextCycleEvent returns the earliest future cycle count at which
// TickCycles has a side effect — the armed timer deadline or the next
// timeshare rotation — and whether any such event is armed. The batched
// machine engine uses it to bound hit fast-path runs so that skipping
// per-reference TickCycles calls (which are no-ops strictly before the
// returned cycle count) cannot change simulated behaviour. It returns the
// cached nextEv; a deadline at the clock's last value reads as unarmed,
// which no run reaches.
func (p *PMU) NextCycleEvent() (uint64, bool) {
	return p.nextEv, p.nextEv != noEvent
}

// Pending returns the highest-priority pending interrupt and clears it.
// Timer interrupts take priority over miss overflows, since the search's
// bookkeeping must not be starved by a busy sampling configuration.
func (p *PMU) Pending() IrqKind {
	if p.pendingTimer {
		p.pendingTimer = false
		p.TimerIrqs++
		return IrqTimer
	}
	if p.pendingMiss {
		p.pendingMiss = false
		p.MissIrqs++
		return IrqMissOverflow
	}
	return IrqNone
}

// HasPending reports whether any interrupt is pending without consuming it.
func (p *PMU) HasPending() bool { return p.pendingTimer || p.pendingMiss }

// Reset clears all counters, interrupts, and statistics.
func (p *PMU) Reset() {
	counters, mux := p.counters, p.mux
	clear(counters)
	*p = PMU{counters: counters, enabled: p.enabled[:0], nextEv: noEvent}
	if mux != nil {
		p.EnableTimesharing(mux.phys, mux.quantum)
	}
}

// --- counter timesharing -------------------------------------------------

// EnableTimesharing emulates the paper's alternative of multiplexing fewer
// physical conditional counters across the n programmed regions: "multiple
// counters with separate base/bounds could be simulated by timesharing the
// single conditional counter between regions of interest." Only phys
// regions are truly counted at any time; assignments rotate every quantum
// cycles, and ReadCounter scales observed counts by the fraction of time
// each region was actually monitored. This trades accuracy for hardware,
// which the ablation benchmarks quantify.
func (p *PMU) EnableTimesharing(phys int, quantum uint64) {
	defer p.schedule()
	if phys <= 0 || phys >= len(p.counters) || quantum == 0 {
		p.mux = nil
		return
	}
	p.mux = &timeshareMux{
		pmu:     p,
		phys:    phys,
		quantum: quantum,
		active:  make([]bool, len(p.counters)),
		onTime:  make([]uint64, len(p.counters)),
	}
	p.mux.rotate(0)
}

// TimesharingEnabled reports whether counter multiplexing is active.
func (p *PMU) TimesharingEnabled() bool { return p.mux != nil }

type timeshareMux struct {
	pmu        *PMU
	phys       int
	quantum    uint64
	rotateAt   uint64
	first      int      // index of first active region counter
	active     []bool   // which logical counters are live this quantum
	onTime     []uint64 // cycles each counter has been live
	lastRotate uint64
	totalTime  uint64
}

func (m *timeshareMux) rotate(now uint64) {
	n := len(m.pmu.counters)
	elapsed := now - m.lastRotate
	for i := 0; i < n; i++ {
		if m.active[i] {
			m.onTime[i] += elapsed
		}
		m.active[i] = false
	}
	m.totalTime += elapsed
	m.lastRotate = now
	for k := 0; k < m.phys; k++ {
		m.active[(m.first+k)%n] = true
	}
	m.first = (m.first + m.phys) % n
	m.rotateAt = now + m.quantum
}

func (m *timeshareMux) tick(now uint64) {
	if now >= m.rotateAt {
		m.rotate(now)
	}
}

func (m *timeshareMux) recordMiss(a mem.Addr) {
	for i := range m.pmu.counters {
		if m.active[i] && m.pmu.counters[i].Matches(a) {
			m.pmu.counters[i].Count++
		}
	}
}

// read returns counter i's count scaled up by the inverse of its duty
// cycle, estimating what a dedicated counter would have seen. Before any
// rotation has completed, counts are scaled by the static duty n/phys.
func (m *timeshareMux) read(i int) uint64 {
	if m.totalTime == 0 || m.onTime[i] == 0 {
		return m.pmu.counters[i].Count * uint64(len(m.pmu.counters)) / uint64(m.phys)
	}
	return uint64(float64(m.pmu.counters[i].Count) * float64(m.totalTime) / float64(m.onTime[i]))
}

// --- checkpoint state ----------------------------------------------------

// MuxState is the serializable timeshare-multiplexer state.
type MuxState struct {
	Phys       int
	Quantum    uint64
	First      int
	Active     []bool
	OnTime     []uint64
	LastRotate uint64
	RotateAt   uint64
	TotalTime  uint64
}

// State is a full snapshot of the PMU, sufficient to resume a run
// byte-identically. Checkpoint encoding lives in internal/checkpoint; the
// PMU only exposes its state as plain data.
type State struct {
	Counters      []Counter
	GlobalMisses  uint64
	LastMissAddr  mem.Addr
	MissThreshold uint64
	MissesToGo    uint64
	TimerDeadline uint64
	TimerArmed    bool
	PendingMiss   bool
	PendingTimer  bool
	MissIrqs      uint64
	TimerIrqs     uint64
	Mux           *MuxState
}

// State captures the PMU's current state. The counter slice is a copy.
func (p *PMU) State() State {
	s := State{
		Counters:      append([]Counter(nil), p.counters...),
		GlobalMisses:  p.GlobalMisses,
		LastMissAddr:  p.LastMissAddr,
		MissThreshold: p.missThreshold,
		MissesToGo:    p.missesToGo,
		TimerDeadline: p.timerDeadline,
		TimerArmed:    p.timerArmed,
		PendingMiss:   p.pendingMiss,
		PendingTimer:  p.pendingTimer,
		MissIrqs:      p.MissIrqs,
		TimerIrqs:     p.TimerIrqs,
	}
	if m := p.mux; m != nil {
		s.Mux = &MuxState{
			Phys:       m.phys,
			Quantum:    m.quantum,
			First:      m.first,
			Active:     append([]bool(nil), m.active...),
			OnTime:     append([]uint64(nil), m.onTime...),
			LastRotate: m.lastRotate,
			RotateAt:   m.rotateAt,
			TotalTime:  m.totalTime,
		}
	}
	return s
}

// SetState restores a snapshot taken by State. The PMU must have been
// constructed with the same counter count (and timesharing configuration)
// as the one snapshotted.
func (p *PMU) SetState(s State) error {
	if len(s.Counters) != len(p.counters) {
		return fmt.Errorf("pmu: snapshot has %d counters, PMU has %d", len(s.Counters), len(p.counters))
	}
	if (s.Mux != nil) != (p.mux != nil) {
		return fmt.Errorf("pmu: snapshot timesharing=%v, PMU timesharing=%v", s.Mux != nil, p.mux != nil)
	}
	defer p.schedule()
	copy(p.counters, s.Counters)
	p.reindex()
	p.GlobalMisses = s.GlobalMisses
	p.LastMissAddr = s.LastMissAddr
	p.missThreshold = s.MissThreshold
	p.missesToGo = s.MissesToGo
	p.timerDeadline = s.TimerDeadline
	p.timerArmed = s.TimerArmed
	p.pendingMiss = s.PendingMiss
	p.pendingTimer = s.PendingTimer
	p.MissIrqs = s.MissIrqs
	p.TimerIrqs = s.TimerIrqs
	if s.Mux != nil {
		m := p.mux
		if s.Mux.Phys != m.phys || s.Mux.Quantum != m.quantum ||
			len(s.Mux.Active) != len(m.active) || len(s.Mux.OnTime) != len(m.onTime) {
			return fmt.Errorf("pmu: snapshot timesharing geometry mismatch")
		}
		m.first = s.Mux.First
		copy(m.active, s.Mux.Active)
		copy(m.onTime, s.Mux.OnTime)
		m.lastRotate = s.Mux.LastRotate
		m.rotateAt = s.Mux.RotateAt
		m.totalTime = s.Mux.TotalTime
	}
	return nil
}
