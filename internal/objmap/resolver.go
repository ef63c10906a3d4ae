package objmap

import (
	"membottle/internal/mem"
	"membottle/internal/rbtree"
)

// Resolver is an immutable snapshot of the map's address-to-object
// resolution, built for the capture-based ground-truth engines: each
// consumer owns a private Resolver, so per-miss attribution never touches
// the shared Map's lookup cache (which mutates on every hit) and the
// interval engine's workers can resolve concurrently without
// synchronization.
//
// A Resolver freezes the set of live objects at construction time. The
// capture engines only use it for runs whose object map is static after
// workload setup (the capture machine detects mid-run allocation and falls
// back to the sequential engine otherwise), so Lookup agrees exactly with
// Map.Lookup over the whole run.
type Resolver struct {
	globals []*Object // shared with the map; sorted by Base, never mutated
	heap    []*Object // live heap blocks at snapshot time, sorted by Base
	stack   []*Object // live stack objects at snapshot time, sorted by Base

	// lastHit/prevHit mirror the Map's two-entry lookup cache: misses
	// cluster spatially, often alternating between two objects (tomcatv's
	// interleaved RX/RY sweeps). Private per Resolver, so mutation is safe.
	lastHit *Object
	prevHit *Object
}

// Resolver snapshots the map's current resolution state. The returned
// Resolver is safe for use from one goroutine; take one snapshot per
// worker (snapshots are cheap: the globals slice is shared, and only the
// live heap and stack indexes are copied).
func (m *Map) Resolver() *Resolver {
	r := &Resolver{globals: m.globals}
	m.heap.Ascend(func(base mem.Addr, size uint64, v rbtree.Value) bool {
		r.heap = append(r.heap, v.(*Object))
		return true
	})
	r.stack = append(r.stack, m.stack...)
	return r
}

// Lookup resolves an address to the object containing it, with the same
// fall-through semantics as Map.Lookup: the globals table claims its whole
// address span (a gap between globals resolves to nil without consulting
// the heap), then live heap blocks, then stack variables.
func (r *Resolver) Lookup(a mem.Addr) *Object {
	if o := r.lastHit; o != nil && o.Contains(a) {
		return o
	}
	if o := r.prevHit; o != nil && o.Contains(a) {
		r.lastHit, r.prevHit = o, r.lastHit
		return o
	}
	if n := len(r.globals); n > 0 && a >= r.globals[0].Base && a < r.globals[n-1].End() {
		lo, hi := 0, n
		for lo < hi {
			mid := (lo + hi) / 2
			if r.globals[mid].End() > a {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if lo < n && r.globals[lo].Contains(a) {
			r.lastHit, r.prevHit = r.globals[lo], r.lastHit
			return r.globals[lo]
		}
		return nil
	}
	if o := search(r.heap, a); o != nil {
		r.lastHit, r.prevHit = o, r.lastHit
		return o
	}
	if o := search(r.stack, a); o != nil {
		r.lastHit, r.prevHit = o, r.lastHit
		return o
	}
	return nil
}

// search stabs a sorted slice of disjoint extents for the one containing a.
func search(objs []*Object, a mem.Addr) *Object {
	lo, hi := 0, len(objs)
	for lo < hi {
		mid := (lo + hi) / 2
		if objs[mid].End() > a {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo < len(objs) && objs[lo].Contains(a) {
		return objs[lo]
	}
	return nil
}
