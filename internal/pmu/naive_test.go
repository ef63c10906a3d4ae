package pmu

import (
	"reflect"
	"testing"

	"membottle/internal/mem"
)

// naivePMU is the reference model for FuzzPMUMatchesNaive: the PMU as the
// paper describes it, with no index and no cached event. RecordMiss checks
// every region counter and NextCycleEvent is recomputed from the timer and
// timeshare state on every call.
type naivePMU struct {
	counters      []Counter
	global        uint64
	last          mem.Addr
	missThreshold uint64
	missesToGo    uint64
	timerDeadline uint64
	timerArmed    bool
	pendingMiss   bool
	pendingTimer  bool
	missIrqs      uint64
	timerIrqs     uint64
	faults        FaultHook
	mux           *MuxState // nil unless timesharing
}

func newNaive(n int) *naivePMU { return &naivePMU{counters: make([]Counter, n)} }

func (p *naivePMU) setRegion(i int, base, bound mem.Addr) {
	p.counters[i] = Counter{Base: base, Bound: bound, Enabled: true}
}

func (p *naivePMU) disableCounter(i int) { p.counters[i] = Counter{} }

func (p *naivePMU) disableAll() {
	for i := range p.counters {
		p.counters[i] = Counter{}
	}
}

func (p *naivePMU) setTimer(deadline uint64) {
	p.timerDeadline, p.timerArmed = deadline, deadline != 0
}

func (p *naivePMU) setMissInterrupt(every uint64) { p.missThreshold, p.missesToGo = every, every }

func (p *naivePMU) rearm(every uint64) {
	if every != 0 {
		p.missThreshold = every
	}
	p.missesToGo = p.missThreshold
}

func (p *naivePMU) enableTimesharing(phys int, quantum uint64) {
	n := len(p.counters)
	if phys <= 0 || phys >= n || quantum == 0 {
		p.mux = nil
		return
	}
	p.mux = &MuxState{Phys: phys, Quantum: quantum, Active: make([]bool, n), OnTime: make([]uint64, n)}
	p.rotate(0)
}

func (p *naivePMU) rotate(now uint64) {
	m, n := p.mux, len(p.counters)
	elapsed := now - m.LastRotate
	for i := range m.Active {
		if m.Active[i] {
			m.OnTime[i] += elapsed
		}
		m.Active[i] = false
	}
	m.TotalTime += elapsed
	m.LastRotate = now
	for k := 0; k < m.Phys; k++ {
		m.Active[(m.First+k)%n] = true
	}
	m.First = (m.First + m.Phys) % n
	m.RotateAt = now + m.Quantum
}

func (p *naivePMU) recordMiss(a mem.Addr) {
	p.global++
	p.last = a
	for i := range p.counters {
		if p.counters[i].Matches(a) && (p.mux == nil || p.mux.Active[i]) {
			p.counters[i].Count++
		}
	}
	if p.faults != nil {
		p.faults.CorruptCounters(p.counters)
	}
	if p.missThreshold == 0 {
		return
	}
	p.missesToGo--
	if p.missesToGo != 0 {
		return
	}
	p.missesToGo = p.missThreshold
	if p.faults != nil {
		if drop, delay := p.faults.MissOverflow(); drop {
			return
		} else if delay > 0 {
			p.missesToGo = delay
			return
		}
	}
	p.pendingMiss = true
}

func (p *naivePMU) tickCycles(cycles uint64) {
	if p.timerArmed && cycles >= p.timerDeadline {
		drop, delay := false, uint64(0)
		if p.faults != nil {
			drop, delay = p.faults.Timer()
		}
		switch {
		case drop:
			p.timerArmed = false
		case delay > 0:
			p.timerDeadline = cycles + delay
		default:
			p.pendingTimer, p.timerArmed = true, false
		}
	}
	if p.mux != nil && cycles >= p.mux.RotateAt {
		p.rotate(cycles)
	}
}

func (p *naivePMU) nextCycleEvent() (uint64, bool) {
	ev, ok := uint64(0), false
	if p.timerArmed {
		ev, ok = p.timerDeadline, true
	}
	if p.mux != nil && (!ok || p.mux.RotateAt < ev) {
		ev, ok = p.mux.RotateAt, true
	}
	return ev, ok
}

func (p *naivePMU) pending() IrqKind {
	switch {
	case p.pendingTimer:
		p.pendingTimer = false
		p.timerIrqs++
		return IrqTimer
	case p.pendingMiss:
		p.pendingMiss = false
		p.missIrqs++
		return IrqMissOverflow
	}
	return IrqNone
}

func (p *naivePMU) read(i int) uint64 {
	c, m := p.counters[i].Count, p.mux
	switch {
	case m == nil:
		return c
	case m.TotalTime == 0 || m.OnTime[i] == 0:
		return c * uint64(len(p.counters)) / uint64(m.Phys)
	}
	return uint64(float64(c) * float64(m.TotalTime) / float64(m.OnTime[i]))
}

func (p *naivePMU) reset() {
	mux := p.mux
	*p = naivePMU{counters: make([]Counter, len(p.counters))}
	if mux != nil {
		p.enableTimesharing(mux.Phys, mux.Quantum)
	}
}

// state renders the model in the PMU's snapshot form, so one DeepEqual
// compares every counter, interrupt and timeshare field.
func (p *naivePMU) state() State {
	s := State{
		Counters:      append([]Counter(nil), p.counters...),
		GlobalMisses:  p.global,
		LastMissAddr:  p.last,
		MissThreshold: p.missThreshold,
		MissesToGo:    p.missesToGo,
		TimerDeadline: p.timerDeadline,
		TimerArmed:    p.timerArmed,
		PendingMiss:   p.pendingMiss,
		PendingTimer:  p.pendingTimer,
		MissIrqs:      p.missIrqs,
		TimerIrqs:     p.timerIrqs,
	}
	if m := p.mux; m != nil {
		c := *m
		c.Active = append([]bool(nil), m.Active...)
		c.OnTime = append([]uint64(nil), m.OnTime...)
		s.Mux = &c
	}
	return s
}

// setState restores a snapshot whose counter count and timesharing
// geometry match the model's.
func (p *naivePMU) setState(s State) {
	copy(p.counters, s.Counters)
	p.global, p.last = s.GlobalMisses, s.LastMissAddr
	p.missThreshold, p.missesToGo = s.MissThreshold, s.MissesToGo
	p.timerDeadline, p.timerArmed = s.TimerDeadline, s.TimerArmed
	p.pendingMiss, p.pendingTimer = s.PendingMiss, s.PendingTimer
	p.missIrqs, p.timerIrqs = s.MissIrqs, s.TimerIrqs
	if s.Mux != nil {
		m := *s.Mux
		m.Active = append([]bool(nil), s.Mux.Active...)
		m.OnTime = append([]uint64(nil), s.Mux.OnTime...)
		p.mux = &m
	}
}

// scriptHook is a deterministic fault hook: each decision draws from a
// xorshift generator, so two copies with equal fields make equal decisions
// as long as they are consulted at equal points.
type scriptHook struct {
	rng                            uint64
	dropMiss, delayMiss            uint8 // chance out of 256
	dropTimer, delayTimer, corrupt uint8
}

func (h *scriptHook) draw() uint8 {
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	return uint8(h.rng >> 56)
}

func (h *scriptHook) MissOverflow() (bool, uint64) {
	if h.draw() < h.dropMiss {
		return true, 0
	}
	if h.draw() < h.delayMiss {
		return false, 1 + uint64(h.draw()%5)
	}
	return false, 0
}

func (h *scriptHook) Timer() (bool, uint64) {
	if h.draw() < h.dropTimer {
		return true, 0
	}
	if h.draw() < h.delayTimer {
		return false, 1 + uint64(h.draw())
	}
	return false, 0
}

func (h *scriptHook) CorruptCounters(cs []Counter) {
	if len(cs) == 0 || h.draw() >= h.corrupt {
		return
	}
	c := &cs[int(h.draw())%len(cs)]
	if h.draw()&1 == 0 {
		c.Count = 0
	} else {
		c.Count = ^uint64(0)
	}
}

// opReader hands out a fuzz program's bytes, then zeros once exhausted.
type opReader struct{ b []byte }

func (r *opReader) next() uint8 {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// FuzzPMUMatchesNaive drives one byte-coded program of PMU operations
// through the PMU and through naivePMU, checking after every step that
// their snapshots, scaled counter reads, pending interrupts and next cycle
// event agree. The PMU's enabled-counter index and cached next event are
// pure accelerations: any disagreement means one of its mutators left them
// stale. The index is also checked against the counters' Enabled flags.
// The first byte sets the counter count; the program's fault hook,
// installed by its own opcode, drops and delays interrupts and corrupts
// counts.
func FuzzPMUMatchesNaive(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		r := &opReader{b: prog}
		n := 1 + int(r.next()%10)
		p, ref := New(n), newNaive(n)
		var clock uint64
		var saved *State
		for step := 0; len(r.b) > 0; step++ {
			op := r.next() % 14
			switch op {
			case 0:
				i := int(r.next()) % n
				base := mem.Addr(r.next()) * 64
				bound := base + mem.Addr(r.next())*64
				p.SetRegion(i, base, bound)
				ref.setRegion(i, base, bound)
			case 1:
				i := int(r.next()) % n
				p.DisableCounter(i)
				ref.disableCounter(i)
			case 2:
				p.DisableAllCounters()
				ref.disableAll()
			case 3:
				var deadline uint64
				if d := r.next(); d != 0 {
					deadline = clock + uint64(d)*3
				}
				p.SetTimer(deadline)
				ref.setTimer(deadline)
			case 4:
				phys, quantum := int(r.next())%(n+1), uint64(r.next()%64)
				p.EnableTimesharing(phys, quantum)
				ref.enableTimesharing(phys, quantum)
			case 5:
				s := p.State()
				saved = &s
			case 6:
				if saved == nil || !sameTimesharing(saved.Mux, ref.mux) {
					continue
				}
				if err := p.SetState(*saved); err != nil {
					t.Fatalf("step %d: SetState: %v", step, err)
				}
				ref.setState(*saved)
			case 7:
				p.Reset()
				ref.reset()
			case 8, 9:
				a := mem.Addr(r.next())*64 + mem.Addr(r.next()%64)
				for k := 1 + r.next()%4; k > 0; k-- {
					p.RecordMiss(a)
					ref.recordMiss(a)
					a += 64
				}
			case 10, 11:
				clock += uint64(r.next()) * 2
				p.TickCycles(clock)
				ref.tickCycles(clock)
			case 12:
				every := uint64(r.next() % 6)
				if r.next()&1 == 0 {
					p.SetMissInterrupt(every)
					ref.setMissInterrupt(every)
				} else {
					p.RearmMissInterrupt(every)
					ref.rearm(every)
				}
			case 13:
				if r.next()&1 == 0 {
					if got, want := p.Pending(), ref.pending(); got != want {
						t.Fatalf("step %d: Pending = %v, naive %v", step, got, want)
					}
					break
				}
				h := scriptHook{rng: uint64(r.next())<<8 | 1,
					dropMiss: r.next(), delayMiss: r.next(),
					dropTimer: r.next(), delayTimer: r.next(), corrupt: r.next()}
				h2 := h
				p.Faults, ref.faults = &h, &h2
			}
			if got, want := p.State(), ref.state(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d (op %d): state\n got %+v\nwant %+v", step, op, got, want)
			}
			for i := 0; i < n; i++ {
				if got, want := p.ReadCounter(i), ref.read(i); got != want {
					t.Fatalf("step %d (op %d): ReadCounter(%d) = %d, naive %d", step, op, i, got, want)
				}
			}
			gotEv, gotOK := p.NextCycleEvent()
			wantEv, wantOK := ref.nextCycleEvent()
			if gotEv != wantEv && (gotOK || wantOK) || gotOK != wantOK {
				t.Fatalf("step %d (op %d): NextCycleEvent = %d,%v, naive %d,%v", step, op, gotEv, gotOK, wantEv, wantOK)
			}
			if p.HasPending() != (ref.pendingMiss || ref.pendingTimer) {
				t.Fatalf("step %d (op %d): HasPending disagrees", step, op)
			}
			// A stale entry for a disabled (zeroed) counter never matches, so
			// the index is also checked directly.
			var want []int
			for i, c := range p.counters {
				if c.Enabled {
					want = append(want, i)
				}
			}
			if len(want) != len(p.enabled) || len(want) > 0 && !reflect.DeepEqual(want, p.enabled) {
				t.Fatalf("step %d (op %d): enabled index %v, counters enable %v", step, op, p.enabled, want)
			}
		}
	})
}

// sameTimesharing reports whether a snapshot's timeshare configuration
// matches the model's, the precondition SetState documents.
func sameTimesharing(s, m *MuxState) bool {
	if s == nil || m == nil {
		return s == nil && m == nil
	}
	return s.Phys == m.Phys && s.Quantum == m.Quantum
}
