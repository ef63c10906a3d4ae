package interval

import (
	"testing"

	"membottle/internal/alloctest"
	"membottle/internal/cache"
	"membottle/internal/mem"
	"membottle/internal/objmap"
)

// TestAllocGate pins representative measurement at zero allocations per
// representative: the warmup replay, the snapshot hand-off through the
// reused buffer, the measured sweep, and per-miss attribution into the
// caller-provided counts slot, with functional warmup on and off. It
// also pins capture into recycled trace-store blocks at zero
// allocations: once a capture has released its blocks, a repeat capture
// of the same length makes none.
func TestAllocGate(t *testing.T) {
	cfg := cache.DefaultConfig()
	space := mem.NewSpace()
	om := objmap.New(space)
	om.BindSpace(space)
	const fieldSize = 1 << 22 // 4 MiB: twice the default cache
	base := space.MustDefineGlobal("field", fieldSize)
	om.SyncGlobals(space)
	nobj := len(om.Objects())

	// Two equal spans of run entries striding three lines at a time, so
	// both the warmup replay of span 0 and the measurement of span 1 miss.
	const spanEntries = 1 << 15
	var st traceStore
	var spans []Span
	var refs uint64
	for s := 0; s < 2; s++ {
		sp := Span{Start: refs, estart: st.n, ecount: spanEntries}
		for i := 0; i < spanEntries; i++ {
			e := s*spanEntries + i
			a := base + mem.Addr(uint64(e)*3*uint64(cfg.LineSize)%fieldSize)
			n := 1 + e%4
			st.push(mem.PackRun(a, n))
			sp.Refs += uint64(n)
		}
		refs += sp.Refs
		spans = append(spans, sp)
	}

	w := &repWorker{meas: cache.New(cfg), warm: cache.New(cfg), res: om.Resolver(), nobj: nobj}
	counts := make([]uint64, nobj)
	measure := func(warmup Warmup) func() {
		return func() {
			clear(counts)
			w.measureRep(&st, spans, 1, warmup, spanEntries, counts)
		}
	}
	chunk := st.block(spans[1].estart)[:spanEntries]
	var out repMeasure
	attribute := func() {
		out = repMeasure{counts: counts}
		w.attribute(chunk, &out)
	}

	// Two full blocks and part of a third, delivered in slices the size
	// of a capture machine's buffer, then released for the next capture.
	var snk captureSink
	delivery := make([]uint64, 4096)
	for i := range delivery {
		delivery[i] = mem.PackRun(base+mem.Addr(i*cfg.LineSize), 1)
	}
	captureRelease := func() {
		for n := 0; n <= 2*blockEntries; n += len(delivery) {
			snk.ConsumeRuns(delivery, uint64(len(delivery)), 0, 0)
		}
		snk.store.release()
		snk.marks, snk.nRefs = snk.marks[:0], 0
	}

	alloctest.Gate(t, []alloctest.Case{
		// The first capture makes the blocks and sizes the marks and the
		// free list; later ones only recycle.
		{Name: "interval.captureSink.ConsumeRuns/recycled", Runs: 5,
			Warmup: captureRelease, Op: captureRelease},
		// The first call sizes the reused missIdx and snapshot buffers.
		{Name: "interval.repWorker.measureRep/warmup-prev", Runs: 20,
			Warmup: measure(WarmupPrev), Op: measure(WarmupPrev)},
		{Name: "interval.repWorker.measureRep/warmup-none", Runs: 20,
			Warmup: measure(WarmupNone), Op: measure(WarmupNone)},
		{Name: "interval.repWorker.attribute", Runs: 50,
			Warmup: func() { w.missIdx = w.meas.SweepRuns(chunk, w.missIdx[:0]) }, Op: attribute},
	})
	matched := uint64(0)
	for _, n := range counts {
		matched += n
	}
	if matched+out.unmatched == 0 {
		t.Fatal("attribute resolved no misses; the gate measured an empty loop")
	}
}
