// Package shadow places the instrumentation's own data structures in the
// simulated address space, so that the profiling code "runs inside the
// simulation ... and it can affect the cache, making it possible to study
// perturbation of the results" (paper §3). Each logical access the sampler
// or search code makes to its tables is issued as a simulated load or
// store in the shadow segment, evicting application lines exactly the way
// real instrumentation would.
package shadow

import (
	"fmt"

	"membottle/internal/machine"
	"membottle/internal/mem"
)

// Array is a shadow-resident array of fixed-size elements.
type Array struct {
	base mem.Addr
	elem uint64
	n    uint64
}

// Arena hands out shadow arrays for one profiler instance.
type Arena struct {
	space *mem.Space
}

// NewArena returns an arena allocating from the space's shadow segment.
func NewArena(space *mem.Space) *Arena { return &Arena{space: space} }

// Array reserves a shadow array of n elements of elemSize bytes.
func (a *Arena) Array(n, elemSize uint64) (Array, error) {
	if n == 0 || elemSize == 0 {
		return Array{}, fmt.Errorf("shadow: array dimensions must be positive (n=%d elem=%d)", n, elemSize)
	}
	base, err := a.space.AllocShadow(n * elemSize)
	if err != nil {
		return Array{}, err
	}
	return Array{base: base, elem: elemSize, n: n}, nil
}

// Len returns the element count.
func (ar Array) Len() uint64 { return ar.n }

// Addr returns the simulated address of element i.
func (ar Array) Addr(i uint64) mem.Addr {
	if i >= ar.n {
		i = ar.n - 1 // clamp: instrumentation bugs must not crash the simulation
	}
	return ar.base + mem.Addr(i*ar.elem)
}

// Load charges a simulated read of element i.
func (ar Array) Load(m *machine.Machine, i uint64) { m.Load(ar.Addr(i)) }

// Store charges a simulated write of element i.
func (ar Array) Store(m *machine.Machine, i uint64) { m.Store(ar.Addr(i)) }

// State models the fixed per-interrupt footprint of instrumentation
// entry/exit: the signal trap frame, saved registers, and the profiler's
// root structure. Touching it on every interrupt is what makes additional
// cache misses *rise* as sampling frequency falls (paper Figure 3): at
// high frequency these lines stay resident, at low frequency they have
// been evicted by the application between samples.
type State struct {
	lines Array
}

// NewState reserves nLines cache lines of handler state.
func NewState(a *Arena, nLines int, lineSize int) (State, error) {
	if nLines <= 0 {
		nLines = 1
	}
	arr, err := a.Array(uint64(nLines), uint64(lineSize))
	if err != nil {
		return State{}, err
	}
	return State{lines: arr}, nil
}

// Touch references every state line once (half loads, half stores, as a
// register save/restore would).
func (s State) Touch(m *machine.Machine) {
	for i := uint64(0); i < s.lines.n; i++ {
		if i%2 == 0 {
			s.lines.Load(m, i)
		} else {
			s.lines.Store(m, i)
		}
	}
}

// BinarySearchProbes issues the shadow loads a binary search over an
// n-entry table performs while looking for position idx: the probe
// sequence of midpoints is deterministic for a given target, so repeated
// lookups of nearby addresses re-touch the same upper-level lines,
// matching the locality of a real object-map search.
func BinarySearchProbes(m *machine.Machine, table Array, n, idx uint64) int {
	if n == 0 {
		return 0
	}
	if n > table.n {
		n = table.n
	}
	if idx >= n {
		idx = n - 1
	}
	probes := 0
	lo, hi := uint64(0), n
	for lo < hi {
		mid := (lo + hi) / 2
		table.Load(m, mid)
		probes++
		if mid == idx {
			break
		}
		if mid < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return probes
}
