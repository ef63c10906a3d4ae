package machine

import (
	"testing"

	"membottle/internal/alloctest"
	"membottle/internal/cache"
	"membottle/internal/mem"
	"membottle/internal/pmu"
)

// nullRefSink discards the captured stream (the capture cost itself is
// what is under test).
type nullRefSink struct{}

func (nullRefSink) ConsumeRefs(refs []Ref, cyclesBefore uint64) {}

// nullRunSink discards run-compacted capture deliveries.
type nullRunSink struct{}

func (nullRunSink) ConsumeRuns(entries []uint64, refs, writes, cyclesBefore uint64) {}

// TestAllocGate pins the machine's steady-state allocation budget at
// zero across every execution mode: the batched hot path with miss
// interrupts landing mid-stream and a handler that itself issues a
// strided range, the line-at-a-time range helpers, the paired range
// helper, the search's armed cycle timer, and both capture modes (run
// capture per line, through its whole-line path, and for paired ranges).
func TestAllocGate(t *testing.T) {
	cfg := cache.DefaultConfig()
	line := uint64(cfg.LineSize)
	span := uint64(cfg.Size) * 2
	newMachine := func() *Machine {
		return New(mem.NewSpace(), cache.New(cfg), pmu.New(0), DefaultCosts())
	}
	refs := make([]Ref, 4096)
	for i := range refs {
		refs[i] = Ref{
			Addr:    mem.Addr(uint64(i) * 3 * line % span),
			Write:   i%4 == 0,
			Compute: uint64(i % 3),
		}
	}

	// Batched execution under interrupts: the sampler configuration, with
	// the handler sweeping its own range inside every AccessBatch.
	mi := newMachine()
	mi.PMU.SetMissInterrupt(512)
	handlerBase := mem.Addr(1) << 40
	mi.MissHandler = func(m *Machine) {
		m.LoadRange(handlerBase, 16*line, line, 0)
		m.PMU.RearmMissInterrupt(512)
	}

	mr := newMachine()
	rangeBase := mem.Addr(1) << 30

	// The n-way search's shape: ten region counters and a far cycle timer
	// that its handler re-arms, so every batch runs with an event armed.
	mt := New(mem.NewSpace(), cache.New(cfg), pmu.New(10), DefaultCosts())
	for i := 0; i < 10; i++ {
		base := mem.Addr(uint64(i) * span / 10)
		mt.PMU.SetRegion(i, base, base+mem.Addr(span/10))
	}
	const searchInterval = 8_000_000
	mt.PMU.SetTimer(searchInterval)
	mt.TimerHandler = func(m *Machine) {
		m.PMU.SetTimer(m.Cycles + searchInterval)
	}

	mc := newMachine()
	mc.SetCapture(nullRefSink{})

	mu := newMachine()
	mu.SetRunCapture(nullRunSink{})

	alloctest.Gate(t, []alloctest.Case{
		{Name: "machine.AccessBatch/interrupts+nested-range",
			Warmup: func() { mi.AccessBatch(refs) },
			Op:     func() { mi.AccessBatch(refs) }},
		{Name: "machine.AccessBatch/timer-armed",
			// Enough all-hit passes (~12k cycles each) to reach the
			// deadline at least once.
			Runs:   1000,
			Warmup: func() { mt.AccessBatch(refs) },
			Op:     func() { mt.AccessBatch(refs) }},
		{Name: "machine.LoadRange/line-runs",
			Warmup: func() { mr.LoadRange(rangeBase, 64*1024, 8, 1) },
			Op:     func() { mr.LoadRange(rangeBase, 64*1024, 8, 1) }},
		{Name: "machine.AccessBatch/capture(RefSink)",
			Warmup: func() { mc.AccessBatch(refs) },
			Op:     func() { mc.AccessBatch(refs) }},
		{Name: "machine.LoadRange/capture(RefSink)",
			Warmup: func() { mc.LoadRange(rangeBase, 64*1024, 8, 1) },
			Op:     func() { mc.LoadRange(rangeBase, 64*1024, 8, 1) }},
		{Name: "machine.AccessBatch/runcapture(RunSink)",
			Warmup: func() { mu.AccessBatch(refs) },
			Op:     func() { mu.AccessBatch(refs) }},
		{Name: "machine.LoadRange/runcapture(RunSink)",
			Warmup: func() { mu.LoadRange(rangeBase, 64*1024, line, 1) },
			Op:     func() { mu.LoadRange(rangeBase, 64*1024, line, 1) }},
		{Name: "machine.StorePairRange/live",
			// One pairSweep call: 1,024 elements of two arrays 1 MiB
			// apart, a miss on each new line pair and one closed-form
			// credit for the rest of it.
			Warmup: func() { mr.StorePairRange(rangeBase, rangeBase+1<<20, 8192, 8, 4) },
			Op:     func() { mr.StorePairRange(rangeBase, rangeBase+1<<20, 8192, 8, 4) }},
		{Name: "machine.StorePairRange/runcapture(RunSink)",
			// 8,192 elements: 16,384 single-reference entries, four
			// deliveries per op.
			Warmup: func() { mu.StorePairRange(rangeBase, rangeBase+1<<20, 64*1024, 8, 4) },
			Op:     func() { mu.StorePairRange(rangeBase, rangeBase+1<<20, 64*1024, 8, 4) }},
		{Name: "machine.LoadRange/runcapture-whole-lines(RunSink)",
			// Stride 8 over 1 MiB: 16,384 whole-line entries written
			// straight into the buffer, four deliveries per op.
			Warmup: func() { mu.LoadRange(rangeBase, 1<<20, 8, 1) },
			Op:     func() { mu.LoadRange(rangeBase, 1<<20, 8, 1) }},
	})

	if mi.Interrupts == 0 {
		t.Fatal("interrupt gate never delivered an interrupt — the nested-range path was not exercised")
	}
	if mt.PMU.TimerIrqs == 0 {
		t.Fatal("timer gate never fired its timer — the re-arm path was not exercised")
	}
}
