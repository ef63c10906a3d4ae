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

// rangeOutcome is everything FuzzRangeMatchesScalar compares.
type rangeOutcome struct {
	err   string
	state State
	cache cache.State
	pmu   pmu.State
	calls []handlerCall
}

// Miss-handler shapes for FuzzRangeMatchesScalar.
const (
	handlerOwnRange  = iota // sweep the handler's own buffer
	handlerSameLine         // LoadRange over the line the miss just filled
	handlerEvictLine        // evict the filled line by sweeping its set
)

// FuzzRangeMatchesScalar runs LoadRange/StoreRange through the scalar and
// the line-at-a-time engines and compares machine, cache and PMU state
// and every handler invocation. Inputs: an unaligned base, the length,
// a stride from 1 byte to three lines, the per-element compute (0
// included), read or write, a zero-HitCycles cost model, a cycle timer
// (0 = off) and its fault slip, counter timesharing (0 = off), miss
// interrupts (0 = off) with three handler shapes, and the cancelAt-th
// handler call cancelling the run's context (0 = never).
//
// mode bits: 1 store, 2 HitCycles = 0, 4 slip the timer, 8/16 select the
// miss handler shape.
func FuzzRangeMatchesScalar(f *testing.F) {
	f.Fuzz(func(t *testing.T, base uint64, bytes uint32, stride uint16, computePer uint8,
		mode uint8, timer uint64, quantum uint32, missEvery uint16, cancelAt uint8) {
		cfg := smallCache()
		lineSize := uint64(cfg.LineSize)
		setSpan := uint64(cfg.Size / cfg.Assoc)
		b := mem.Addr(0x10000 + base%(1<<20))
		n := uint64(bytes) % (64 << 10)
		s := max(1, uint64(stride)%(3*lineSize+1))
		cp := uint64(computePer % 8)
		deadline := timer % 4_000_000 // 0 = off
		interval := 10_000 + timer%1_000_000
		q := uint64(quantum % 50_000)
		every := uint64(missEvery % 1_000)
		shape := (mode >> 3) & 3

		run := func(scalar bool) rangeOutcome {
			cost := DefaultCosts()
			if mode&2 != 0 {
				cost.HitCycles = 0
			}
			m := New(mem.NewSpace(), cache.New(cfg), pmu.New(4), cost)
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
			// The cancelling handler cancels as its last action, so both
			// engines see it at the poll that follows every delivery. The
			// periodic polls between deliveries fall at engine-specific
			// points by design (the batched paths amortise them).
			maybeCancel := func() {
				if cancelAt != 0 && len(out.calls) == int(cancelAt) {
					cancel()
				}
			}
			m.PMU.SetRegion(0, 0x10000, 0x50000)
			m.PMU.SetRegion(1, 0x50000, 0x130000)
			m.PMU.SetRegion(2, 0xA_0000_0000, 0xA_0001_0000)
			m.PMU.SetRegion(3, 0xB_0000_0000, 0xB_0001_0000)
			if q != 0 {
				m.PMU.EnableTimesharing(2, q)
			}
			if deadline != 0 {
				if mode&4 != 0 {
					m.PMU.Faults = &slipHook{}
				}
				m.PMU.SetTimer(deadline)
				m.TimerHandler = func(m *Machine) {
					record(m, true)
					m.LoadRange(0xA_0000_0000, 256, 64, 1)
					m.Compute(m.Cycles % 17)
					m.PMU.SetTimer(m.Cycles + interval)
					maybeCancel()
				}
			}
			if every != 0 {
				m.PMU.SetMissInterrupt(every)
				m.MissHandler = func(m *Machine) {
					record(m, false)
					line := uint64(m.PMU.LastMissAddr) &^ (lineSize - 1)
					switch {
					case shape == handlerSameLine:
						m.LoadRange(mem.Addr(line), lineSize, 8, 1)
					case shape == handlerEvictLine && line < 0xA_0000_0000:
						// Fill the application line's set with handler
						// lines; a chained delivery for the handler's own
						// misses does not chase them.
						m.LoadRange(mem.Addr(0xB_0000_0000+line%setSpan), uint64(cfg.Assoc)*setSpan, setSpan, 0)
					case shape != handlerEvictLine:
						m.LoadRange(0xB_0000_0000, 128, 64, 2)
					}
					maybeCancel()
				}
			}
			rangeOp := m.LoadRange
			otherOp := m.StoreRange
			if mode&1 != 0 {
				rangeOp, otherOp = otherOp, rangeOp
			}
			w := stepFunc(func(m *Machine) {
				rangeOp(b, n, s, cp)
				m.Compute(1) // guarantees the one Step makes progress
				otherOp(b+mem.Addr(n/2), n, s, cp)
			})
			if err := m.RunContext(ctx, w, 1); err != nil {
				out.err = err.Error()
			}
			out.state = m.State()
			out.cache = m.Cache.State()
			out.pmu = m.PMU.State()
			return out
		}
		sc, li := run(true), run(false)
		if sc.err != li.err {
			t.Fatalf("run error: scalar %q, line-at-a-time %q", sc.err, li.err)
		}
		if sc.state != li.state {
			t.Fatalf("machine state diverged:\nscalar:         %+v\nline-at-a-time: %+v", sc.state, li.state)
		}
		if !reflect.DeepEqual(sc.pmu, li.pmu) {
			t.Fatalf("PMU state diverged:\nscalar:         %+v\nline-at-a-time: %+v", sc.pmu, li.pmu)
		}
		if !reflect.DeepEqual(sc.calls, li.calls) {
			t.Fatalf("handler calls diverged (%d vs %d):\nscalar:         %+v\nline-at-a-time: %+v",
				len(sc.calls), len(li.calls), sc.calls, li.calls)
		}
		if sc.cache.Clock != li.cache.Clock || sc.cache.Stats != li.cache.Stats || !reflect.DeepEqual(sc.cache.Ways, li.cache.Ways) {
			t.Fatalf("cache state diverged: scalar clock %d %+v, line-at-a-time clock %d %+v",
				sc.cache.Clock, sc.cache.Stats, li.cache.Clock, li.cache.Stats)
		}
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
