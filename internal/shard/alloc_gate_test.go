package shard

import (
	"testing"

	"membottle/internal/alloctest"
	"membottle/internal/cache"
	"membottle/internal/mem"
	"membottle/internal/objmap"
)

// TestAllocGate pins the sink's steady-state delivery at zero
// allocations per full run buffer: the sweep into the reused missIdx
// buffer, sized once at the first delivery, plus attribution by runs of
// misses against the preallocated counts table.
func TestAllocGate(t *testing.T) {
	cfg := cache.DefaultConfig()
	space := mem.NewSpace()
	om := objmap.New(space)
	om.BindSpace(space)
	const fieldSize = 1 << 22 // 4 MiB: twice the default cache
	base := space.MustDefineGlobal("field", fieldSize)
	other := space.MustDefineGlobal("other", fieldSize)
	om.SyncGlobals(space)

	s := &sink{
		cache:  cache.New(cfg),
		res:    om.Resolver(),
		counts: make([]uint64, len(om.Objects())),
	}
	// A full buffer of the machine's run-buffer size (1<<12 entries) whose
	// misses change object every few lines, beyond the end of both
	// objects (unmatched) included.
	entries := make([]uint64, 1<<12)
	for i := range entries {
		a := base + mem.Addr(uint64(i)*3*uint64(cfg.LineSize)%fieldSize)
		switch i % 7 {
		case 3:
			a += other - base
		case 5:
			a = other + fieldSize + mem.Addr(i)
		}
		entries[i] = mem.PackRun(a, 1+i%4)
	}
	consume := func() { s.ConsumeRuns(entries, 0, 0, 0) }

	alloctest.Gate(t, []alloctest.Case{
		{Name: "shard.sink.ConsumeRuns/sweep+attribute", Runs: 50,
			Warmup: consume, Op: consume},
	})
	if s.unmatched == 0 || s.counts[0] == 0 || s.counts[1] == 0 {
		t.Fatalf("gate buffer exercised too little: unmatched %d, counts %v", s.unmatched, s.counts)
	}
}
