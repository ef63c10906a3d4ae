package core

import (
	"membottle/internal/mem"
	"membottle/internal/objmap"
)

// Region is one span of the address space under consideration by the
// n-way search, together with its measurement history.
type Region struct {
	Lo, Hi mem.Addr

	// Obj is non-nil when the region overlaps exactly one program object:
	// a terminal region that can only be re-measured, not split.
	Obj *objmap.Object

	// lastPct is the region's share (0..100) of total misses in its most
	// recent non-zero measurement interval.
	lastPct float64
	// sumPct and nMeasured accumulate measurements; single-object regions
	// are re-measured across iterations and ranked "with increasing
	// accuracy" by the running average.
	sumPct    float64
	nMeasured int

	// zeroStreak counts consecutive zero-miss intervals survived under
	// the phase heuristic.
	zeroStreak int
	// wasTop records that the region (or its parent) ranked in the top
	// n/2, which entitles it to the phase exception when it measures zero.
	wasTop bool
	// hasObjects records whether any program object overlaps the region.
	// Object-free regions (address-space holes) can never cause misses
	// and are discarded without the phase exception.
	hasObjects bool

	// foundAt is the search iteration at which the region became terminal.
	foundAt int
}

// Span returns the region's size in bytes.
func (r *Region) Span() uint64 { return uint64(r.Hi - r.Lo) }

// Score is the ranking key in the priority queue: the running average for
// single-object regions (which are re-measured repeatedly), the latest
// measurement otherwise.
func (r *Region) Score() float64 {
	if r.Obj != nil && r.nMeasured > 0 {
		return r.sumPct / float64(r.nMeasured)
	}
	return r.lastPct
}

// AvgPct is the averaged percentage estimate for reporting.
func (r *Region) AvgPct() float64 {
	if r.nMeasured == 0 {
		return r.lastPct
	}
	return r.sumPct / float64(r.nMeasured)
}

// record adds one measurement sample.
func (r *Region) record(pct float64) {
	r.lastPct = pct
	r.sumPct += pct
	r.nMeasured++
}

// regionPQ is a max-heap of regions keyed by Score. Heap operations report
// the number of sift steps performed so the search can charge equivalent
// shadow-memory traffic for its bookkeeping.
type regionPQ struct {
	rs []*Region
}

func (q *regionPQ) Len() int { return len(q.rs) }

func (q *regionPQ) less(i, j int) bool {
	si, sj := q.rs[i].Score(), q.rs[j].Score()
	if si != sj {
		return si > sj // max-heap
	}
	// Tie-break on address for determinism.
	return q.rs[i].Lo < q.rs[j].Lo
}

func (q *regionPQ) swap(i, j int) { q.rs[i], q.rs[j] = q.rs[j], q.rs[i] }

// Push inserts r and returns the number of sift steps.
func (q *regionPQ) Push(r *Region) int {
	q.rs = append(q.rs, r)
	return q.up(len(q.rs) - 1)
}

// Pop removes and returns the highest-scoring region and the number of
// sift steps.
func (q *regionPQ) Pop() (*Region, int) {
	if len(q.rs) == 0 {
		return nil, 0
	}
	top := q.rs[0]
	last := len(q.rs) - 1
	q.rs[0] = q.rs[last]
	q.rs[last] = nil
	q.rs = q.rs[:last]
	steps := 0
	if last > 0 {
		steps = q.down(0)
	}
	return top, steps
}

// Peek returns the highest-scoring region without removing it.
func (q *regionPQ) Peek() *Region {
	if len(q.rs) == 0 {
		return nil
	}
	return q.rs[0]
}

// TopK returns the k highest-scoring regions (not removed), in descending
// score order. k may exceed Len.
func (q *regionPQ) TopK(k int) []*Region {
	if k > len(q.rs) {
		k = len(q.rs)
	}
	// n is tiny (tens of regions); selection by copy+partial sort.
	cp := make([]*Region, len(q.rs))
	copy(cp, q.rs)
	out := make([]*Region, 0, k)
	for len(out) < k {
		best := -1
		for i, r := range cp {
			if r == nil {
				continue
			}
			if best == -1 || better(r, cp[best]) {
				best = i
			}
		}
		out = append(out, cp[best])
		cp[best] = nil
	}
	return out
}

func better(a, b *Region) bool {
	sa, sb := a.Score(), b.Score()
	if sa != sb {
		return sa > sb
	}
	return a.Lo < b.Lo
}

// All returns the regions in heap order (unsorted).
func (q *regionPQ) All() []*Region { return q.rs }

func (q *regionPQ) up(i int) int {
	steps := 0
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
		steps++
	}
	return steps
}

func (q *regionPQ) down(i int) int {
	steps := 0
	n := len(q.rs)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && q.less(l, best) {
			best = l
		}
		if r < n && q.less(r, best) {
			best = r
		}
		if best == i {
			break
		}
		q.swap(i, best)
		i = best
		steps++
	}
	return steps
}
