// Package workload provides from-scratch recreations of the memory access
// behaviour of the seven SPEC95 applications the paper evaluates: tomcatv,
// swim, su2cor, mgrid, applu, compress and ijpeg.
//
// The paper runs the real SPEC95 binaries instrumented with ATOM on Alpha
// hardware; neither the binaries, the reference inputs, nor ATOM are
// available here, so each workload is a synthetic kernel whose *memory
// access structure* is calibrated to the per-object cache-miss
// distributions the paper reports in its "Actual" columns (Table 1) and to
// the qualitative behaviours the evaluation depends on: tomcatv's
// interleaved RX/RY accesses (the §3.1 sampling resonance), applu's
// alternating computation phases (Figure 5), su2cor's long-term shift in
// access patterns (the §3.4 two-way-search failure), and the low overall
// miss rates of compress and ijpeg (Figure 3's outliers). See DESIGN.md
// for the substitution rationale.
package workload

import (
	"fmt"
	"sort"

	"membottle/internal/machine"
	"membottle/internal/mem"
)

// Factory constructs a fresh workload instance.
type Factory func() machine.Workload

var registry = map[string]Factory{}
var registryOrder []string

// register adds a workload to the registry (called from each init).
func register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic("workload: duplicate registration of " + name)
	}
	registry[name] = f
	registryOrder = append(registryOrder, name)
}

// Names returns the registered workload names in the paper's table order.
func Names() []string {
	out := make([]string, len(registryOrder))
	copy(out, registryOrder)
	return out
}

// New instantiates a workload by name.
func New(name string) (machine.Workload, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q (have %v)", name, Names())
	}
	return f(), nil
}

// MustNew is New for callers with static names.
func MustNew(name string) machine.Workload {
	w, err := New(name)
	if err != nil {
		panic(err)
	}
	return w
}

// --- scheduling helpers ------------------------------------------------

// stride builds a stride-scheduled order for the given weights: entry i
// appears weights[i] times, spread evenly through the round, so that any
// measurement window a few units long observes close to the steady-state
// mix. Deterministic.
func stride(weights []int) []int {
	type slot struct {
		pos float64
		idx int
	}
	var slots []slot
	for i, w := range weights {
		for j := 0; j < w; j++ {
			slots = append(slots, slot{pos: (float64(j) + 0.5) / float64(w), idx: i})
		}
	}
	sort.Slice(slots, func(a, b int) bool {
		if slots[a].pos != slots[b].pos {
			return slots[a].pos < slots[b].pos
		}
		return slots[a].idx < slots[b].idx
	})
	order := make([]int, len(slots))
	for i, s := range slots {
		order[i] = s.idx
	}
	return order
}

// unit is one schedulable chunk of work (typically one array sweep). run
// does the work; cursor, when non-nil, points at the unit's persistent
// sweep position so checkpointing can capture and restore it.
type unit struct {
	run    func(m *machine.Machine)
	cursor *uint64
}

// schedule executes units in a fixed cyclic order, one unit per Step.
type schedule struct {
	units   []unit
	weights []int
	order   []int
	pos     int
}

// add registers a unit with the given weight.
func (s *schedule) add(w int, u unit) {
	s.units = append(s.units, u)
	s.weights = append(s.weights, w)
}

// build converts the accumulated (unit, weight) pairs into a stride order.
func (s *schedule) build() {
	s.order = stride(s.weights)
	s.pos = 0
}

// step runs the next unit.
func (s *schedule) step(m *machine.Machine) {
	if len(s.order) == 0 {
		return
	}
	s.units[s.order[s.pos]].run(m)
	s.pos = (s.pos + 1) % len(s.order)
}

// state flattens the schedule's mutable state (rotation position plus
// each unit's sweep cursor) for checkpointing. Stateless units contribute
// a zero.
func (s *schedule) state() []uint64 {
	out := make([]uint64, 0, 1+len(s.units))
	out = append(out, uint64(s.pos))
	for _, u := range s.units {
		if u.cursor != nil {
			out = append(out, *u.cursor)
		} else {
			out = append(out, 0)
		}
	}
	return out
}

// stateLen is the number of values state produces.
func (s *schedule) stateLen() int { return 1 + len(s.units) }

// setState restores values produced by state on an identically built
// schedule.
func (s *schedule) setState(vals []uint64) error {
	if len(vals) != s.stateLen() {
		return fmt.Errorf("workload: schedule state has %d values, want %d", len(vals), s.stateLen())
	}
	if len(s.order) > 0 && vals[0] >= uint64(len(s.order)) {
		return fmt.Errorf("workload: schedule position %d out of range [0,%d)", vals[0], len(s.order))
	}
	s.pos = int(vals[0])
	for i, u := range s.units {
		if u.cursor != nil {
			*u.cursor = vals[i+1]
		}
	}
	return nil
}

// --- sweep kernels ------------------------------------------------------

// segBytes is the scheduling granularity: each schedule slot streams one
// 128 KiB segment of its array, resuming where the previous slot left
// off. Fine-grained interleaving keeps any measurement window a few
// hundred microseconds long close to the steady-state per-array mix,
// while each array's full cyclic revisit distance still far exceeds the
// cache, so sweeps always miss. Array sizes must be multiples of segBytes.
const segBytes = 128 << 10

// segs returns the number of schedule slots one full sweep of an array
// occupies. Workload weights multiply by this.
func segs(size uint64) int {
	if size%segBytes != 0 {
		panic("workload: array size not a multiple of the sweep segment")
	}
	return int(size / segBytes)
}

// loadSweep returns a unit streaming reads over one segment per call,
// cycling through the array.
func loadSweep(base mem.Addr, size, cpe uint64) unit {
	pos := new(uint64)
	_ = segs(size)
	return unit{cursor: pos, run: func(m *machine.Machine) {
		m.LoadRange(base+mem.Addr(*pos), segBytes, 8, cpe)
		*pos = (*pos + segBytes) % size
	}}
}

// storeSweep is loadSweep with writes.
func storeSweep(base mem.Addr, size, cpe uint64) unit {
	pos := new(uint64)
	_ = segs(size)
	return unit{cursor: pos, run: func(m *machine.Machine) {
		m.StoreRange(base+mem.Addr(*pos), segBytes, 8, cpe)
		*pos = (*pos + segBytes) % size
	}}
}

// pairElems is the number of elements one pairSweep call to
// StorePairRange covers: 2,048 stores. Run capture charges a call's
// cycles after its entries, so this chunk size fixes the cycle stamps
// of the deliveries the capture engines receive.
const pairElems = 1024

// pairSweep returns a unit sweeping the same segment of two arrays
// element-by-element together (a(i) and b(i) in the same loop iteration),
// producing strictly alternating cache misses between the two arrays —
// the access structure behind tomcatv's RX/RY sampling resonance. Each
// chunk of pairElems elements is one StorePairRange call, which simulates
// the scalar Store(a)/Store(b)/Compute sequence exactly.
func pairSweep(a, b mem.Addr, size, cpe uint64) unit {
	pos := new(uint64)
	_ = segs(size)
	return unit{cursor: pos, run: func(m *machine.Machine) {
		end := *pos + segBytes
		for off := *pos; off < end; off += pairElems * 8 {
			m.StorePairRange(a+mem.Addr(off), b+mem.Addr(off), min(pairElems*8, end-off), 8, cpe)
		}
		*pos = end % size
	}}
}

// xorshift64 is a tiny deterministic PRNG for workload data synthesis
// (compress's input corpus); platform-independent.
type xorshift64 struct{ s uint64 }

func newXorshift(seed uint64) *xorshift64 {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &xorshift64{s: seed}
}

func (x *xorshift64) next() uint64 {
	x.s ^= x.s << 13
	x.s ^= x.s >> 7
	x.s ^= x.s << 17
	return x.s
}

// intn returns a value in [0, n).
func (x *xorshift64) intn(n uint64) uint64 { return x.next() % n }
