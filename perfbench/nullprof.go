package main

import (
	"membottle/internal/core"
	"membottle/internal/machine"
	"membottle/internal/mem"
	"membottle/internal/objmap"
)

// The null profilers arm the PMU the way the paper's two techniques do but
// run no technique logic, so subtracting a null run from a technique run
// leaves the technique's own handler time, and subtracting a plain run
// from a null run leaves the cost of the armed hardware. Their handlers
// make no memory references, so all three runs simulate the same
// application reference stream. They use only public pmu and machine API.

// Search and sampling parameters of the paper's Table 1, as the
// experiments package sets them by default.
const (
	searchN        = 10
	searchInterval = 8_000_000
)

// nullTimer programs searchN region counters over the address space and a
// cycle timer that its handler only re-arms: the search's hardware set-up
// without the search.
type nullTimer struct{}

func (nullTimer) Install(m *machine.Machine, _ *objmap.Map) error {
	lo, hi := m.Space.Extent()
	span := uint64(hi - lo)
	for i := 0; i < searchN; i++ {
		m.PMU.SetRegion(i, lo+mem.Addr(span*uint64(i)/searchN), lo+mem.Addr(span*uint64(i+1)/searchN))
	}
	m.TimerHandler = func(m *machine.Machine) { m.PMU.SetTimer(m.Cycles + searchInterval) }
	m.PMU.SetTimer(m.Cycles + searchInterval)
	return nil
}

func (nullTimer) Estimates() []core.Estimate { return nil }
func (nullTimer) Done() bool                 { return false }

// nullMiss arms the miss-overflow interrupt every interval misses with a
// handler that does nothing: sampling's interrupt delivery without the
// sampler.
type nullMiss struct{ interval uint64 }

func (p nullMiss) Install(m *machine.Machine, _ *objmap.Map) error {
	m.PMU.SetMissInterrupt(p.interval)
	m.MissHandler = func(*machine.Machine) {}
	return nil
}

func (nullMiss) Estimates() []core.Estimate { return nil }
func (nullMiss) Done() bool                 { return false }
