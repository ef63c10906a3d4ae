package machine

import (
	"context"
	"reflect"
	"testing"

	"membottle/internal/cache"
	"membottle/internal/mem"
	"membottle/internal/pmu"
)

// stepFunc is a one-Step workload for driving a machine under RunContext.
type stepFunc func(m *Machine)

func (stepFunc) Name() string      { return "range" }
func (stepFunc) Setup(*Machine)    {}
func (f stepFunc) Step(m *Machine) { f(m) }

// handlerCall is one handler invocation as the handler saw the machine.
type handlerCall struct {
	timer         bool
	cycles, insts uint64
	clock, misses uint64
	lastMiss      mem.Addr
}

// rangeOutcome is everything the range fuzzers compare.
type rangeOutcome struct {
	err   string
	state State
	cache cache.State
	pmu   pmu.State
	calls []handlerCall
}

// Miss-handler shapes for the range fuzzers.
const (
	handlerOwnRange  = iota // sweep the handler's own buffer
	handlerSameLine         // LoadRange over the line the miss just filled
	handlerEvictLine        // evict the filled line by sweeping its set
)

// rangeRig is the interrupt setup the range fuzzers run one Step under:
// four PMU regions over the application and handler buffers, optional
// counter timesharing, a cycle timer (optionally slipped by a fault
// hook) whose handler sweeps its own buffer and re-arms, miss interrupts
// with one of three handler shapes, and a handler call that cancels the
// run's context.
type rangeRig struct {
	cfg       cache.Config
	zeroHit   bool   // HitCycles = 0
	slip      bool   // slip every other timer deadline
	deadline  uint64 // first timer deadline; 0 = off
	interval  uint64 // timer re-arm interval
	quantum   uint64 // counter timesharing quantum; 0 = off
	missEvery uint64 // miss interrupt period; 0 = off
	shape     uint8  // miss handler shape
	cancelAt  uint8  // the handler call that cancels; 0 = never
}

// newRangeRig maps fuzz inputs onto a rig. mode bits: 2 HitCycles = 0,
// 4 slip the timer, 8/16 select the miss handler shape.
func newRangeRig(cfg cache.Config, mode uint8, timer uint64, quantum uint32, missEvery uint16, cancelAt uint8) rangeRig {
	return rangeRig{
		cfg:       cfg,
		zeroHit:   mode&2 != 0,
		slip:      mode&4 != 0,
		deadline:  timer % 4_000_000,
		interval:  10_000 + timer%1_000_000,
		quantum:   uint64(quantum % 50_000),
		missEvery: uint64(missEvery % 1_000),
		shape:     (mode >> 3) & 3,
		cancelAt:  cancelAt,
	}
}

// run executes step as the one Step of a RunContext run on a fresh
// machine, scalar or not, and returns everything the fuzzers compare.
func (r rangeRig) run(scalar bool, step func(m *Machine)) rangeOutcome {
	lineSize := uint64(r.cfg.LineSize)
	setSpan := uint64(r.cfg.Size / r.cfg.Assoc)
	cost := DefaultCosts()
	if r.zeroHit {
		cost.HitCycles = 0
	}
	m := New(mem.NewSpace(), cache.New(r.cfg), pmu.New(4), cost)
	m.Scalar = scalar
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out rangeOutcome
	record := func(m *Machine, timer bool) {
		out.calls = append(out.calls, handlerCall{
			timer: timer, cycles: m.Cycles, insts: m.Insts,
			clock: m.Cache.State().Clock, misses: m.Cache.Stats.Misses,
			lastMiss: m.PMU.LastMissAddr,
		})
	}
	// The cancelling handler cancels as its last action, so both engines
	// see it at the poll that follows every delivery. The periodic polls
	// between deliveries fall at engine-specific points by design (the
	// batched paths amortise them).
	maybeCancel := func() {
		if r.cancelAt != 0 && len(out.calls) == int(r.cancelAt) {
			cancel()
		}
	}
	m.PMU.SetRegion(0, 0x10000, 0x50000)
	m.PMU.SetRegion(1, 0x50000, 0x130000)
	m.PMU.SetRegion(2, 0xA_0000_0000, 0xA_0001_0000)
	m.PMU.SetRegion(3, 0xB_0000_0000, 0xB_0001_0000)
	if r.quantum != 0 {
		m.PMU.EnableTimesharing(2, r.quantum)
	}
	if r.deadline != 0 {
		if r.slip {
			m.PMU.Faults = &slipHook{}
		}
		m.PMU.SetTimer(r.deadline)
		m.TimerHandler = func(m *Machine) {
			record(m, true)
			m.LoadRange(0xA_0000_0000, 256, 64, 1)
			m.Compute(m.Cycles % 17)
			m.PMU.SetTimer(m.Cycles + r.interval)
			maybeCancel()
		}
	}
	// The miss handler's own buffer. Direct-mapped, at the region's base
	// it would share sets with the timer handler's buffer: each handler
	// would evict the other's lines, and their own misses could chain
	// deliveries without end. Sixteen lines up it has sets of its own.
	ownRange := mem.Addr(0xB_0000_0000)
	if r.cfg.Assoc == 1 {
		ownRange += mem.Addr(16 * lineSize)
	}
	if r.missEvery != 0 {
		m.PMU.SetMissInterrupt(r.missEvery)
		m.MissHandler = func(m *Machine) {
			record(m, false)
			line := uint64(m.PMU.LastMissAddr) &^ (lineSize - 1)
			switch {
			case r.shape == handlerSameLine:
				m.LoadRange(mem.Addr(line), lineSize, 8, 1)
			case r.shape == handlerEvictLine && line < 0xA_0000_0000:
				// Fill the application line's set with handler lines; a
				// chained delivery for the handler's own misses does not
				// chase them.
				m.LoadRange(mem.Addr(0xB_0000_0000+line%setSpan), uint64(r.cfg.Assoc)*setSpan, setSpan, 0)
			case r.shape != handlerEvictLine:
				m.LoadRange(ownRange, 128, 64, 2)
			}
			maybeCancel()
		}
	}
	if err := m.RunContext(ctx, stepFunc(step), 1); err != nil {
		out.err = err.Error()
	}
	out.state = m.State()
	out.cache = m.Cache.State()
	out.pmu = m.PMU.State()
	return out
}

// mustMatch fails t unless the scalar and fast outcomes agree on the run
// error, machine, PMU and cache state (stamps included) and every
// handler call.
func mustMatch(t *testing.T, sc, li rangeOutcome) {
	t.Helper()
	if sc.err != li.err {
		t.Fatalf("run error: scalar %q, fast %q", sc.err, li.err)
	}
	if sc.state != li.state {
		t.Fatalf("machine state diverged:\nscalar: %+v\nfast:   %+v", sc.state, li.state)
	}
	if !reflect.DeepEqual(sc.pmu, li.pmu) {
		t.Fatalf("PMU state diverged:\nscalar: %+v\nfast:   %+v", sc.pmu, li.pmu)
	}
	if !reflect.DeepEqual(sc.calls, li.calls) {
		t.Fatalf("handler calls diverged (%d vs %d):\nscalar: %+v\nfast:   %+v",
			len(sc.calls), len(li.calls), sc.calls, li.calls)
	}
	if sc.cache.Clock != li.cache.Clock || sc.cache.Stats != li.cache.Stats || !reflect.DeepEqual(sc.cache.Ways, li.cache.Ways) {
		t.Fatalf("cache state diverged: scalar clock %d %+v, fast clock %d %+v",
			sc.cache.Clock, sc.cache.Stats, li.cache.Clock, li.cache.Stats)
	}
}

// FuzzRangeMatchesScalar runs LoadRange/StoreRange through the scalar and
// the line-at-a-time engines under a rangeRig and compares machine,
// cache and PMU state and every handler invocation. Inputs: an unaligned
// base, the length, a stride from 1 byte to three lines, the per-element
// compute (0 included), read or write (mode bit 1), and the rig's
// inputs (see newRangeRig).
func FuzzRangeMatchesScalar(f *testing.F) {
	f.Fuzz(func(t *testing.T, base uint64, bytes uint32, stride uint16, computePer uint8,
		mode uint8, timer uint64, quantum uint32, missEvery uint16, cancelAt uint8) {
		cfg := smallCache()
		b := mem.Addr(0x10000 + base%(1<<20))
		n := uint64(bytes) % (64 << 10)
		s := max(1, uint64(stride)%(3*uint64(cfg.LineSize)+1))
		cp := uint64(computePer % 8)
		rig := newRangeRig(cfg, mode, timer, quantum, missEvery, cancelAt)
		step := func(m *Machine) {
			rangeOp, otherOp := m.LoadRange, m.StoreRange
			if mode&1 != 0 {
				rangeOp, otherOp = otherOp, rangeOp
			}
			rangeOp(b, n, s, cp)
			m.Compute(1) // guarantees the one Step makes progress
			otherOp(b+mem.Addr(n/2), n, s, cp)
		}
		mustMatch(t, rig.run(true, step), rig.run(false, step))
	})
}

// FuzzPairRangeMatchesScalar runs StorePairRange through the scalar and
// the element-run engines under a rangeRig and compares machine, cache
// (stamps included) and PMU state and every handler invocation. The
// Step issues one pair range, then a second with the arrays swapped and
// shifted by half the length, so its runs find lines the first left
// resident. Inputs: the two bases anywhere in a 1 MiB window (so b may
// sit below a, on a's line, or in a's set), the length, a stride from 1
// byte to three lines, the per-element compute (0 included), a
// direct-mapped cache (mode bit 1), and the rig's inputs.
func FuzzPairRangeMatchesScalar(f *testing.F) {
	// a, b, bytes, stride, computePer, mode, timer, quantum, missEvery, cancelAt
	const far = 0x20000 + 5*64 // b in a set of its own
	// After the first element's two misses (147 cycles at stride 8 and
	// compute 3), element e of a's line ticks at 147+7(e-1)+2 (a), +4 (b)
	// and +7 (compute): element 3's ticks are 163, 165 and 168.
	f.Add(uint64(0), uint64(far), uint32(32768), uint16(8), uint8(3), uint8(0), uint64(163), uint32(0), uint16(0), uint8(0))
	f.Add(uint64(0), uint64(far), uint32(32768), uint16(8), uint8(3), uint8(0), uint64(165), uint32(0), uint16(0), uint8(0))
	f.Add(uint64(0), uint64(far), uint32(32768), uint16(8), uint8(3), uint8(0), uint64(168), uint32(0), uint16(0), uint8(0))
	// Every second miss is b's: the handler evicts b's line mid-line.
	f.Add(uint64(0), uint64(far), uint32(32768), uint16(8), uint8(3), uint8(2<<3), uint64(0), uint32(0), uint16(2), uint8(0))
	// A direct-mapped cache with both arrays in one set: every store misses.
	f.Add(uint64(0), uint64(0x20000), uint32(16384), uint16(8), uint8(1), uint8(1), uint64(0), uint32(0), uint16(7), uint8(0))
	// b on a's line, and b one stride into the line after a's.
	f.Add(uint64(4), uint64(36), uint32(20000), uint16(8), uint8(2), uint8(0), uint64(9_000), uint32(0), uint16(0), uint8(0))
	f.Add(uint64(0), uint64(72), uint32(20000), uint16(8), uint8(0), uint8(0), uint64(0), uint32(0), uint16(3), uint8(0))
	// Zero HitCycles with and without compute, under a timer.
	f.Add(uint64(0), uint64(far), uint32(32768), uint16(8), uint8(0), uint8(2), uint64(3_000), uint32(0), uint16(0), uint8(0))
	f.Add(uint64(0), uint64(far), uint32(32768), uint16(8), uint8(2), uint8(2), uint64(3_000), uint32(0), uint16(0), uint8(0))
	// The third miss handler call cancels the run mid-range.
	f.Add(uint64(0), uint64(far), uint32(32768), uint16(8), uint8(3), uint8(0), uint64(0), uint32(0), uint16(50), uint8(3))
	// A slipping timer, timesharing, and a wide unaligned stride.
	f.Add(uint64(3), uint64(far+1), uint32(50000), uint16(100), uint8(1), uint8(4), uint64(20_000), uint32(7_000), uint16(40), uint8(0))
	f.Fuzz(func(t *testing.T, aOff, bOff uint64, bytes uint32, stride uint16, computePer uint8,
		mode uint8, timer uint64, quantum uint32, missEvery uint16, cancelAt uint8) {
		cfg := smallCache()
		if mode&1 != 0 {
			cfg.Assoc = 1
		}
		a := mem.Addr(0x10000 + aOff%(1<<20))
		b := mem.Addr(0x10000 + bOff%(1<<20))
		n := uint64(bytes) % (64 << 10)
		s := max(1, uint64(stride)%(3*uint64(cfg.LineSize)+1))
		cp := uint64(computePer % 8)
		rig := newRangeRig(cfg, mode, timer, quantum, missEvery, cancelAt)
		step := func(m *Machine) {
			m.StorePairRange(a, b, n, s, cp)
			m.Compute(1) // guarantees the one Step makes progress
			m.StorePairRange(b, a+mem.Addr(n/2), n, s, cp)
		}
		mustMatch(t, rig.run(true, step), rig.run(false, step))
	})
}

// deliveryLog copies out every RefSink delivery with its cycle stamp.
type deliveryLog struct {
	refs   [][]Ref
	cycles []uint64
}

func (d *deliveryLog) ConsumeRefs(refs []Ref, cyclesBefore uint64) {
	d.refs = append(d.refs, append([]Ref(nil), refs...))
	d.cycles = append(d.cycles, cyclesBefore)
}

// TestRefCaptureRangeMatchesBatch pins the RefSink range path: a range
// staged in capBuf reaches the sink as the same slices, payloads and
// cycle stamps as an AccessBatch of the materialised range in
// capBuf-sized chunks, after the pending scalar references are flushed
// and with a trailing Compute left out of the range's last payload.
func TestRefCaptureRangeMatchesBatch(t *testing.T) {
	const base, bytes, stride, computePer = 0x10003, 20_000, 8, 3
	drive := func(useRange bool) (*Machine, *deliveryLog) {
		var log deliveryLog
		m := New(mem.NewSpace(), cache.New(smallCache()), pmu.New(0), DefaultCosts())
		m.SetCapture(&log)
		m.Load(0x900)
		m.Compute(5)
		for _, write := range []bool{false, true} {
			if useRange && write {
				m.StoreRange(base, bytes, stride, computePer)
			} else if useRange {
				m.LoadRange(base, bytes, stride, computePer)
			} else {
				var refs []Ref
				for off := uint64(0); off < bytes; off += stride {
					refs = append(refs, Ref{Addr: base + mem.Addr(off), Write: write, Compute: computePer})
				}
				for len(refs) > 0 {
					n := min(len(refs), batchChunk)
					m.AccessBatch(refs[:n])
					refs = refs[n:]
				}
			}
			m.Compute(7)
		}
		m.Store(0x940)
		m.FlushCapture()
		return m, &log
	}
	mr, got := drive(true)
	mb, want := drive(false)
	if mr.State() != mb.State() {
		t.Fatalf("charges diverged: range %+v, batch %+v", mr.State(), mb.State())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("deliveries diverged: range %d slices, batch %d; stamps %v vs %v",
			len(got.refs), len(want.refs), got.cycles, want.cycles)
	}
	if len(want.refs) < 5 {
		t.Fatalf("only %d deliveries; the range did not span several capBuf chunks", len(want.refs))
	}
}
