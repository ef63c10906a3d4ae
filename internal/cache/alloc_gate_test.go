package cache

import (
	"testing"

	"membottle/internal/alloctest"
	"membottle/internal/mem"
)

// TestAllocGate pins the cache engine's steady-state allocation budget
// at zero: the scalar path, the batched and same-line-run paths, the
// offline sweeps the shard and interval engines replay through, and the
// reused-snapshot path must not allocate per call. The working set is
// twice the cache, so every op sees a steady mix of hits, misses, and
// fills.
func TestAllocGate(t *testing.T) {
	cfg := DefaultConfig()
	line := uint64(cfg.LineSize)
	span := uint64(cfg.Size) * 2

	c := New(cfg)
	refs := make([]mem.Ref, 4096)
	for i := range refs {
		refs[i] = mem.Ref{
			Addr:    mem.Addr(uint64(i) * 3 * line % span),
			Write:   i%4 == 0,
			Compute: uint64(i % 3),
		}
	}
	packed := make([]uint64, len(refs))
	for i := range refs {
		packed[i] = mem.PackRef(refs[i].Addr, refs[i].Write)
	}
	runEntries := make([]uint64, 0, 1024)
	for i := 0; i < 1024; i++ {
		runEntries = append(runEntries, mem.PackRun(mem.Addr(uint64(i)*5*line%span), 1+i%7))
	}

	missIdx := make([]uint32, 0, len(packed))
	var snap State

	alloctest.Gate(t, []alloctest.Case{
		{Name: "cache.Access", Op: func() {
			for i := range refs {
				c.Access(refs[i].Addr, refs[i].Write)
			}
		}},
		{Name: "cache.AccessBatch", Op: func() {
			rest := refs
			for len(rest) > 0 {
				n, _, _ := c.AccessBatch(rest)
				rest = rest[n:]
			}
		}},
		{Name: "cache.AccessRun", Op: func() {
			for i := range refs {
				a := refs[i].Addr
				for n := uint64(8); n > 0; {
					done, _ := c.AccessRun(a, n, refs[i].Write)
					n -= done
				}
			}
		}},
		{Name: "cache.StateInto/reused", Warmup: func() { c.StateInto(&snap) },
			Op: func() { c.StateInto(&snap) }},
		{Name: "cache.Sweep", Op: func() {
			missIdx = c.Sweep(packed, missIdx[:0])
		}},
		{Name: "cache.SweepRuns", Op: func() {
			missIdx = c.SweepRuns(runEntries, missIdx[:0])
		}},
	})
}
