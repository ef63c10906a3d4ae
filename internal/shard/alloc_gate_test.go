package shard

import (
	"testing"

	"membottle/internal/alloctest"
	"membottle/internal/cache"
	"membottle/internal/mem"
	"membottle/internal/objmap"
)

// TestAllocGate pins the shard worker's steady-state replay at zero
// allocations per chunk of run entries: the partition's run sweep into
// the reused missIdx buffer plus per-miss attribution against the
// preallocated counts table.
func TestAllocGate(t *testing.T) {
	cfg := cache.DefaultConfig()
	space := mem.NewSpace()
	om := objmap.New(space)
	om.BindSpace(space)
	const fieldSize = 1 << 22 // 4 MiB: twice the default cache
	base := space.MustDefineGlobal("field", fieldSize)
	om.SyncGlobals(space)

	part, err := cache.NewPartition(cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := &worker{
		part:    part,
		res:     om.Resolver(),
		counts:  make([]uint64, len(om.Objects())),
		missIdx: make([]uint32, 0, chunkEntries),
	}
	c := newChunk()
	for i := 0; i < chunkEntries; i++ {
		a := base + mem.Addr(uint64(i)*3*uint64(cfg.LineSize)%fieldSize)
		c.entries = append(c.entries, mem.PackRun(a, 1+i%4))
	}

	alloctest.Gate(t, []alloctest.Case{
		{Name: "shard.worker.process/sweep+attribute", Runs: 50,
			Op: func() { w.process(c) }},
	})
}
