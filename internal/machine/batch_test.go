package machine

import (
	"testing"

	"membottle/internal/cache"
	"membottle/internal/mem"
	"membottle/internal/pmu"
)

// snapshot is the complete externally observable machine state compared by
// the batched-vs-scalar differential tests.
type snapshot struct {
	Cycles, Insts, AppInsts uint64
	HandlerCycles           uint64
	Interrupts              uint64
	CacheStats              cache.Stats
	Resident                int
	GlobalMisses            uint64
	MissIrqs, TimerIrqs     uint64
	Counter0, Counter1      uint64
	LastMissAddr            mem.Addr
}

func snap(m *Machine) snapshot {
	s := snapshot{
		Cycles:        m.Cycles,
		Insts:         m.Insts,
		AppInsts:      m.AppInsts,
		HandlerCycles: m.HandlerCycles,
		Interrupts:    m.Interrupts,
		CacheStats:    m.Cache.Stats,
		Resident:      m.Cache.Resident(),
		GlobalMisses:  m.PMU.GlobalMisses,
		MissIrqs:      m.PMU.MissIrqs,
		TimerIrqs:     m.PMU.TimerIrqs,
		LastMissAddr:  m.PMU.LastMissAddr,
	}
	if m.PMU.NumCounters() > 0 {
		s.Counter0 = m.PMU.ReadCounter(0)
	}
	if m.PMU.NumCounters() > 1 {
		s.Counter1 = m.PMU.ReadCounter(1)
	}
	return s
}

// diffRig builds two identical machines (one scalar, one batched), runs
// drive on both, and asserts the final states are identical. setup
// configures each machine (PMU programming, handlers) before driving.
func diffRig(t *testing.T, cfg cache.Config, counters int, setup func(m *Machine), drive func(m *Machine)) {
	t.Helper()
	run := func(scalar bool) snapshot {
		m := New(mem.NewSpace(), cache.New(cfg), pmu.New(counters), DefaultCosts())
		m.Scalar = scalar
		if setup != nil {
			setup(m)
		}
		drive(m)
		return snap(m)
	}
	s, b := run(true), run(false)
	if s != b {
		t.Fatalf("batched execution diverged from scalar:\nscalar:  %+v\nbatched: %+v", s, b)
	}
}

// smallCache forces frequent misses and evictions.
func smallCache() cache.Config { return cache.Config{Size: 16 << 10, LineSize: 64, Assoc: 2} }

// mixedRefs builds a deterministic pseudo-random batch mixing a small hot
// region (hits) with a large cold region (misses), writes, and irregular
// compute payloads.
func mixedRefs(n int, seed uint64) []Ref {
	s := seed | 1
	refs := make([]Ref, n)
	for i := range refs {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		r := Ref{}
		if s%4 == 0 {
			r.Addr = mem.Addr(0x100000 + (s>>8)%(1<<22)) // cold: mostly misses
		} else {
			r.Addr = mem.Addr(0x1000 + (s>>8)%(8<<10)) // hot: mostly hits
		}
		r.Write = s%3 == 0
		if s%5 == 0 {
			r.Compute = s % 97
		}
		refs[i] = r
	}
	return refs
}

func TestBatchMatchesScalarPlain(t *testing.T) {
	refs := mixedRefs(200_000, 42)
	diffRig(t, smallCache(), 0, nil, func(m *Machine) {
		m.AccessBatch(refs)
	})
}

func TestBatchMatchesScalarRanges(t *testing.T) {
	diffRig(t, smallCache(), 0, nil, func(m *Machine) {
		for i := 0; i < 40; i++ {
			m.LoadRange(0x10000, 64<<10, 8, 3)
			m.StoreRange(0x40000, 32<<10, 16, 0)
			m.LoadRange(0x1000, 4<<10, 8, 1) // resident: hit fast path
		}
	})
}

func TestBatchMatchesScalarWithMissInterrupts(t *testing.T) {
	refs := mixedRefs(150_000, 7)
	diffRig(t, smallCache(), 2,
		func(m *Machine) {
			m.PMU.SetRegion(0, 0x100000, 0x200000)
			m.PMU.SetRegion(1, 0x1000, 0x3000)
			m.PMU.SetMissInterrupt(500)
			m.MissHandler = func(m *Machine) {
				// Handler touches memory (perturbing the cache) and
				// computes, exactly as the profilers do.
				m.LoadRange(0xA_0000_0000, 1<<10, 64, 2)
				m.Compute(60)
			}
		},
		func(m *Machine) {
			m.AccessBatch(refs)
		})
}

func TestBatchMatchesScalarWithTimer(t *testing.T) {
	refs := mixedRefs(150_000, 99)
	diffRig(t, smallCache(), 1,
		func(m *Machine) {
			m.PMU.SetRegion(0, 0x1000, 0x4000)
			m.PMU.SetTimer(10_000)
			m.TimerHandler = func(m *Machine) {
				m.LoadRange(0xA_0000_0000, 512, 64, 1)
				// Rearm at an interval that lands the deadline at
				// arbitrary points inside batches.
				m.PMU.SetTimer(m.Cycles + 9_973)
			}
		},
		func(m *Machine) {
			m.AccessBatch(refs)
			m.Compute(1234)
			m.AccessBatch(refs[:1000])
		})
}

func TestBatchMatchesScalarWithTimesharing(t *testing.T) {
	refs := mixedRefs(120_000, 3)
	diffRig(t, smallCache(), 4,
		func(m *Machine) {
			m.PMU.EnableTimesharing(1, 5_000)
			m.PMU.SetRegion(0, 0x100000, 0x180000)
			m.PMU.SetRegion(1, 0x180000, 0x200000)
			m.PMU.SetRegion(2, 0x1000, 0x2000)
			m.PMU.SetRegion(3, 0x2000, 0x3000)
		},
		func(m *Machine) {
			m.AccessBatch(refs)
		})
}

// TestBatchMatchesScalarTimerMovedMidBatch arms the search's far timer
// deadline, then lets a miss-interrupt handler pull it into the current
// batch or disarm it. The batched engine caches only the batch's all-hit
// cost, never the event, so it must see every move.
func TestBatchMatchesScalarTimerMovedMidBatch(t *testing.T) {
	refs := mixedRefs(150_000, 13)
	diffRig(t, smallCache(), 2,
		func(m *Machine) {
			m.PMU.SetRegion(0, 0x100000, 0x200000)
			m.PMU.SetRegion(1, 0x1000, 0x3000)
			m.PMU.SetTimer(8_000_000)
			m.PMU.SetMissInterrupt(37)
			var k uint64
			m.MissHandler = func(m *Machine) {
				k++
				switch k % 3 {
				case 0:
					// Due a few references into the current batch.
					m.PMU.SetTimer(m.Cycles + 1 + k%300)
				case 1:
					m.PMU.SetTimer(0)
				}
			}
			m.TimerHandler = func(m *Machine) {
				m.LoadRange(0xA_0000_0000, 512, 64, 1)
				m.PMU.SetTimer(m.Cycles + 8_000_000)
			}
		},
		func(m *Machine) {
			m.AccessBatch(refs)
			m.LoadRange(0x10000, 64<<10, 8, 3)
			if m.PMU.TimerIrqs == 0 {
				t.Fatal("no timer interrupt delivered; the pulled-in deadlines were not exercised")
			}
		})
}

// slipHook is a pmu.FaultHook that slips every other timer deadline by a
// varying delay, so the deadline moves while a batch is in flight.
type slipHook struct{ n uint64 }

func (h *slipHook) MissOverflow() (bool, uint64)  { return false, 0 }
func (h *slipHook) CorruptCounters([]pmu.Counter) {}
func (h *slipHook) Timer() (bool, uint64) {
	h.n++
	if h.n%2 == 0 {
		return false, 0
	}
	return false, 1 + h.n*7919%3_000
}

func TestBatchMatchesScalarTimerFaultSlip(t *testing.T) {
	refs := mixedRefs(150_000, 17)
	diffRig(t, smallCache(), 1,
		func(m *Machine) {
			m.PMU.SetRegion(0, 0x1000, 0x4000)
			m.PMU.Faults = &slipHook{}
			m.PMU.SetTimer(20_000)
			m.TimerHandler = func(m *Machine) {
				m.LoadRange(0xA_0000_0000, 512, 64, 1)
				m.PMU.SetTimer(m.Cycles + 20_000)
			}
		},
		func(m *Machine) {
			m.AccessBatch(refs)
			if m.PMU.TimerIrqs == 0 {
				t.Fatal("no timer interrupt delivered")
			}
		})
}

// FuzzBatchMatchesScalar runs mixedRefs through the scalar and batched
// engines under any combination of the PMU's event sources: a re-arming
// cycle timer, timeshared counters, and miss-overflow interrupts (each 0
// = off). Its handlers touch memory and move the timer, as the profilers
// do. The timer interval stays above one interrupt delivery: a shorter
// one re-fires during its own delivery, an interrupt storm that livelocks
// the scalar and batched engines alike.
func FuzzBatchMatchesScalar(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, n uint, timer, quantum, missEvery uint64) {
		refs := mixedRefs(1+int(n%20_000), seed)
		if timer != 0 {
			timer = 10_000 + timer%10_000_000
		}
		if quantum != 0 {
			quantum = 1 + quantum%50_000
		}
		if missEvery != 0 {
			missEvery = 1 + missEvery%2_000
		}
		diffRig(t, smallCache(), 4,
			func(m *Machine) {
				if quantum != 0 {
					m.PMU.EnableTimesharing(2, quantum)
				}
				m.PMU.SetRegion(0, 0x100000, 0x180000)
				m.PMU.SetRegion(1, 0x180000, 0x200000)
				m.PMU.SetRegion(2, 0x1000, 0x2000)
				m.PMU.SetRegion(3, 0x2000, 0x3000)
				if timer != 0 {
					m.PMU.SetTimer(timer)
					m.TimerHandler = func(m *Machine) {
						m.LoadRange(0xA_0000_0000, 256, 64, 1)
						// A delivery cycle that differs by one shows up
						// in Cycles.
						m.Compute(m.Cycles % 17)
						m.PMU.SetTimer(m.Cycles + timer)
					}
				}
				if missEvery != 0 {
					m.PMU.SetMissInterrupt(missEvery)
					m.MissHandler = func(m *Machine) {
						m.LoadRange(0xB_0000_0000, 128, 64, 2)
						if timer != 0 && m.PMU.MissIrqs%2 == 0 {
							// Pull the deadline into the current batch.
							m.PMU.SetTimer(m.Cycles + 1 + m.PMU.MissIrqs%500)
						}
					}
				}
			},
			func(m *Machine) {
				m.AccessBatch(refs)
			})
	})
}

func TestBatchMatchesScalarTruthHook(t *testing.T) {
	// OnMiss observers (ground truth) must see the same miss stream.
	refs := mixedRefs(100_000, 11)
	var scalarLog, batchLog []mem.Addr
	run := func(scalar bool, log *[]mem.Addr) snapshot {
		m := New(mem.NewSpace(), cache.New(smallCache()), pmu.New(0), DefaultCosts())
		m.Scalar = scalar
		m.OnMiss = func(a mem.Addr, write, inHandler bool) { *log = append(*log, a) }
		m.AccessBatch(refs)
		return snap(m)
	}
	s := run(true, &scalarLog)
	b := run(false, &batchLog)
	if s != b {
		t.Fatalf("state diverged:\nscalar:  %+v\nbatched: %+v", s, b)
	}
	if len(scalarLog) != len(batchLog) {
		t.Fatalf("miss streams differ in length: %d vs %d", len(scalarLog), len(batchLog))
	}
	for i := range scalarLog {
		if scalarLog[i] != batchLog[i] {
			t.Fatalf("miss %d differs: %#x vs %#x", i, uint64(scalarLog[i]), uint64(batchLog[i]))
		}
	}
}

func TestBatchOnRefFallsBackToScalar(t *testing.T) {
	// With an OnRef observer installed (trace recording), batches must
	// degrade to the scalar path and the observer must see every ref in
	// order.
	refs := mixedRefs(10_000, 5)
	m := New(mem.NewSpace(), cache.New(smallCache()), pmu.New(0), DefaultCosts())
	var seen []mem.Addr
	m.OnRef = func(a mem.Addr, write bool) { seen = append(seen, a) }
	m.AccessBatch(refs)
	if len(seen) != len(refs) {
		t.Fatalf("OnRef saw %d refs, want %d", len(seen), len(refs))
	}
	for i := range refs {
		if seen[i] != refs[i].Addr {
			t.Fatalf("ref %d: OnRef saw %#x, want %#x", i, uint64(seen[i]), uint64(refs[i].Addr))
		}
	}
}

func TestCapRefs(t *testing.T) {
	cost := CostModel{HitCycles: 2, ComputeCPI: 1}
	refs := []Ref{{Compute: 10}, {Compute: 10}, {Compute: 10}}
	// Per element: 2 access cycles then 10 compute cycles.
	cases := []struct {
		ev   uint64
		n    int
		tick bool
	}{
		{1, 0, false},   // already due
		{2, 0, false},   // fires on ref 0's access tick
		{3, 1, true},    // fires inside ref 0's compute
		{12, 1, true},   // fires exactly at ref 0's compute tick
		{13, 1, false},  // fires on ref 1's access tick (12+2 >= 13)
		{15, 2, true},   // inside ref 1's compute
		{100, 3, false}, // never fires in this batch
	}
	for _, c := range cases {
		n, tick := capRefs(refs, 0, c.ev, cost)
		if n != c.n || tick != c.tick {
			t.Errorf("capRefs(ev=%d) = (%d,%v), want (%d,%v)", c.ev, n, tick, c.n, c.tick)
		}
	}

	// The property AccessBatch relies on to skip capRefs: whenever
	// endsBefore holds, capRefs returns (len(refs), false). At the
	// boundary, one cycle of horizon before the event skips, and a last
	// tick landing exactly on the event scans, where capRefs must cut or
	// tick.
	cost.ComputeCPI = 3
	s := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	for iter := 0; iter < 2_000; iter++ {
		refs := make([]Ref, 1+next()%64)
		for i := range refs {
			if next()%3 == 0 {
				refs[i].Compute = next() % 20
			}
		}
		cycles := next() % 1_000_000
		rest := allHitCycles(refs, cost)
		all := len(refs)

		// A random event on either side of the horizon.
		if ev := cycles + 1 + next()%(2*rest); endsBefore(cycles, rest, ev) {
			if n, tick := capRefs(refs, cycles, ev, cost); n != all || tick {
				t.Fatalf("cycles=%d rest=%d ev=%d: capRefs = (%d,%v), want (%d,false)", cycles, rest, ev, n, tick, all)
			}
		}
		// An event already due is never skipped.
		if ev := cycles - next()%(cycles+1); endsBefore(cycles, rest, ev) {
			t.Fatalf("cycles=%d ev=%d: an event already due was skipped", cycles, ev)
		}
		// cycles+rest == ev-1: skipped, and capRefs agrees.
		if !endsBefore(cycles, rest, cycles+rest+1) {
			t.Fatalf("cycles=%d rest=%d: horizon one cycle before the event was not skipped", cycles, rest)
		}
		if n, tick := capRefs(refs, cycles, cycles+rest+1, cost); n != all || tick {
			t.Fatalf("ev = horizon+1: capRefs = (%d,%v), want (%d,false)", n, tick, all)
		}
		// cycles+rest == ev: scanned, and capRefs cuts or ticks.
		if endsBefore(cycles, rest, cycles+rest) {
			t.Fatalf("cycles=%d rest=%d: horizon landing on the event was skipped", cycles, rest)
		}
		if n, tick := capRefs(refs, cycles, cycles+rest, cost); n == all && !tick {
			t.Fatalf("ev = horizon: capRefs = (%d,false), want a cut or a trailing tick", n)
		}
	}
}
