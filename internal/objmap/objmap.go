// Package objmap resolves simulated addresses to program objects — the
// mapping the paper's tools need in order to report cache misses in terms
// of source-level data structures. Global and static variables come from
// the symbol table ("using data from symbol tables and debug information");
// dynamically allocated blocks are tracked "by instrumenting memory
// allocation library functions" and indexed in a red-black tree, since that
// data changes as allocations and deallocations take place.
package objmap

import (
	"fmt"
	"sort"

	"membottle/internal/mem"
	"membottle/internal/rbtree"
)

// Kind classifies a program object.
type Kind int

const (
	// KindGlobal is a global or static variable from the symbol table.
	KindGlobal Kind = iota
	// KindHeap is a dynamically allocated block; its name is its address
	// in hexadecimal, as in the paper's tables (e.g. "0x141020000").
	KindHeap
	// KindStack is a stack variable (the paper's future work; supported
	// here as an extension via frame registration).
	KindStack
)

func (k Kind) String() string {
	switch k {
	case KindGlobal:
		return "global"
	case KindHeap:
		return "heap"
	case KindStack:
		return "stack"
	default:
		return "unknown"
	}
}

// Object is one profiled program object.
type Object struct {
	// ID is a dense identifier assigned at registration, usable as an
	// index into per-object count arrays.
	ID   int
	Name string
	Base mem.Addr
	Size uint64
	Kind Kind
	// Live is false once a heap block has been freed. Dead objects stay
	// in the table so that counts accumulated while they were live remain
	// reportable.
	Live bool
}

// End returns the first address past the object.
func (o *Object) End() mem.Addr { return o.Base + mem.Addr(o.Size) }

// Contains reports whether a falls within the object's extent.
func (o *Object) Contains(a mem.Addr) bool { return a >= o.Base && a < o.End() }

func (o *Object) String() string {
	return fmt.Sprintf("%s %s [%#x,+%d)", o.Kind, o.Name, uint64(o.Base), o.Size)
}

// Map is the address-to-object index.
type Map struct {
	globals      []*Object // sorted by Base
	globalsSeen  int       // symbols already ingested from the space
	heap         rbtree.Tree
	stack        []*Object // registered stack variables, sorted by Base
	byID         []*Object
	frameLayouts map[string][]LocalVar

	// LookupDepth accumulates the number of probe steps performed by
	// lookups (binary-search probes + tree-node visits). The shadow cost
	// model converts these into simulated memory accesses.
	LookupDepth uint64

	// lastHit/prevHit cache the two most recent successful lookups. Cache
	// misses cluster spatially, but the cluster often spans two objects at
	// once (tomcatv's interleaved RX/RY pair sweeps alternate every
	// reference), so two entries are kept. Invalidated on any index
	// mutation.
	lastHit *Object
	prevHit *Object
}

// New builds a Map seeded with the globals of the given address space.
// Call BindSpace afterwards (or use System wiring) so heap allocations and
// frees keep the map current; call SyncGlobals after any further
// DefineGlobal calls.
func New(space *mem.Space) *Map {
	m := &Map{}
	m.SyncGlobals(space)
	return m
}

// SyncGlobals ingests any symbols defined in the space since the last
// sync. Globals are only ever appended (in address order), so this is an
// incremental scan.
func (m *Map) SyncGlobals(space *mem.Space) {
	syms := space.Symbols()
	for _, s := range syms[m.globalsSeen:] {
		m.addObject(s.Name, s.Base, s.Size, KindGlobal)
	}
	m.globalsSeen = len(syms)
}

// BindSpace chains the map's observers onto the space's allocation hooks,
// preserving any observers already installed.
func (m *Map) BindSpace(space *mem.Space) {
	prevAlloc, prevFree := space.AllocObserver, space.FreeObserver
	space.AllocObserver = func(base mem.Addr, size uint64) {
		if prevAlloc != nil {
			prevAlloc(base, size)
		}
		m.OnAlloc(base, size)
	}
	space.FreeObserver = func(base mem.Addr, size uint64) {
		if prevFree != nil {
			prevFree(base, size)
		}
		m.OnFree(base)
	}
	prevArena := space.ArenaObserver
	space.ArenaObserver = func(site string, base mem.Addr, size uint64) {
		if prevArena != nil {
			prevArena(site, base, size)
		}
		m.onArena(site, base, size)
	}
	prevStack := space.StackObserver
	space.StackObserver = func(fn string, base mem.Addr, size uint64, push bool) {
		if prevStack != nil {
			prevStack(fn, base, size, push)
		}
		if push {
			m.onFramePush(fn, base, size)
		} else {
			m.onFramePop(base, size)
		}
	}
}

func (m *Map) addObject(name string, base mem.Addr, size uint64, kind Kind) *Object {
	o := &Object{
		ID:   len(m.byID),
		Name: name,
		Base: base,
		Size: size,
		Kind: kind,
		Live: true,
	}
	m.byID = append(m.byID, o)
	m.lastHit, m.prevHit = nil, nil
	switch kind {
	case KindGlobal:
		m.globals = append(m.globals, o) // symbol tables arrive sorted
	case KindStack:
		i := sort.Search(len(m.stack), func(i int) bool { return m.stack[i].Base > base })
		m.stack = append(m.stack, nil)
		copy(m.stack[i+1:], m.stack[i:])
		m.stack[i] = o
	}
	return o
}

// OnAlloc registers a new heap block. The object is named by its base
// address in hex, matching the paper's presentation.
func (m *Map) OnAlloc(base mem.Addr, size uint64) *Object {
	o := m.addObject(fmt.Sprintf("%#x", uint64(base)), base, size, KindHeap)
	m.heap.Insert(base, size, o)
	return o
}

// OnFree marks the heap block at base dead and removes it from the index.
func (m *Map) OnFree(base mem.Addr) {
	if v, ok := m.heap.Get(base); ok {
		v.(*Object).Live = false
	}
	m.heap.Delete(base)
	m.lastHit, m.prevHit = nil, nil
}

// RegisterStackVar registers a named stack variable extent (the paper's
// future-work extension). Instances of the same logical variable should
// share a name; callers aggregate by name when reporting.
func (m *Map) RegisterStackVar(name string, base mem.Addr, size uint64) *Object {
	return m.addObject(name, base, size, KindStack)
}

// Lookup resolves an address to the object containing it. It returns nil
// if the address belongs to no known object (e.g. allocator metadata or
// instrumentation memory).
func (m *Map) Lookup(a mem.Addr) *Object {
	if o := m.lastHit; o != nil && o.Contains(a) {
		m.LookupDepth++
		return o
	}
	if o := m.prevHit; o != nil && o.Contains(a) {
		m.LookupDepth++
		m.lastHit, m.prevHit = o, m.lastHit
		return o
	}
	// Globals: binary search in the sorted symbol-derived table.
	if n := len(m.globals); n > 0 && a >= m.globals[0].Base && a < m.globals[n-1].End() {
		lo, hi := 0, n
		for lo < hi {
			m.LookupDepth++
			mid := (lo + hi) / 2
			if m.globals[mid].End() > a {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if lo < n && m.globals[lo].Contains(a) {
			m.lastHit, m.prevHit = m.globals[lo], m.lastHit
			return m.globals[lo]
		}
		return nil
	}
	// Heap blocks: red-black tree stabbing query.
	if _, _, v, depth, ok := m.heap.FindWithCost(a); ok {
		m.LookupDepth += uint64(depth)
		m.lastHit, m.prevHit = v.(*Object), m.lastHit
		return m.lastHit
	} else {
		m.LookupDepth += uint64(depth)
	}
	// Stack variables (extension).
	if n := len(m.stack); n > 0 {
		i := sort.Search(n, func(i int) bool { return m.stack[i].End() > a })
		m.LookupDepth++
		if i < n && m.stack[i].Contains(a) {
			m.lastHit, m.prevHit = m.stack[i], m.lastHit
			return m.stack[i]
		}
	}
	return nil
}

// ByID returns the object with the given dense ID.
func (m *Map) ByID(id int) *Object { return m.byID[id] }

// Len returns the total number of objects ever registered (live + dead).
func (m *Map) Len() int { return len(m.byID) }

// Objects returns all registered objects in registration order. The slice
// is shared; callers must not modify it.
func (m *Map) Objects() []*Object { return m.byID }

// LiveHeapBlocks returns the number of currently live heap blocks.
func (m *Map) LiveHeapBlocks() int { return m.heap.Len() }

// Boundaries returns every object boundary within [lo, hi): each object's
// Base and End clipped to the span, sorted and deduplicated. Region
// splitting uses this to avoid placing a split point inside an object.
func (m *Map) Boundaries(lo, hi mem.Addr) []mem.Addr {
	var bs []mem.Addr
	add := func(a mem.Addr) {
		if a > lo && a < hi {
			bs = append(bs, a)
		}
	}
	for _, o := range m.globals {
		if o.End() <= lo {
			continue
		}
		if o.Base >= hi {
			break
		}
		add(o.Base)
		add(o.End())
	}
	m.heap.Ascend(func(base mem.Addr, size uint64, v rbtree.Value) bool {
		if base >= hi {
			return false
		}
		if base+mem.Addr(size) <= lo {
			return true
		}
		add(base)
		add(base + mem.Addr(size))
		return true
	})
	for _, o := range m.stack {
		if o.End() <= lo || o.Base >= hi {
			continue
		}
		add(o.Base)
		add(o.End())
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	// dedupe
	out := bs[:0]
	var prev mem.Addr
	for i, b := range bs {
		if i == 0 || b != prev {
			out = append(out, b)
		}
		prev = b
	}
	return out
}

// AlignSplit chooses a split point for region [lo, hi) near the midpoint
// that does not fall strictly inside any object, implementing the paper's
// fix for "memory objects that lie only partially within a region". If no
// object boundary exists inside the span (the region is interior to a
// single large object, or empty), the raw midpoint is returned.
func (m *Map) AlignSplit(lo, hi mem.Addr) mem.Addr {
	return m.AlignPoint(lo, hi, lo+(hi-lo)/2)
}

// AlignPoint snaps an arbitrary target split point within (lo, hi) to the
// nearest object boundary so that no object spans the resulting regions.
// Used both by binary splitting (AlignSplit) and by the initial n-way
// partition of the address space.
func (m *Map) AlignPoint(lo, hi, mid mem.Addr) mem.Addr {
	if mid <= lo {
		mid = lo + 1
	}
	if mid >= hi {
		mid = hi - 1
	}
	o := m.Lookup(mid)
	if o == nil || o.Base == mid {
		return mid
	}
	// mid is strictly inside o: snap to whichever edge of o keeps both
	// halves non-empty, preferring the closer edge.
	left, right := o.Base, o.End()
	leftOK := left > lo
	rightOK := right < hi
	switch {
	case leftOK && rightOK:
		if mid-left <= right-mid {
			return left
		}
		return right
	case leftOK:
		return left
	case rightOK:
		return right
	default:
		// The object spans the whole region: no split point exists that
		// keeps the object whole. Return lo so callers (which require a
		// cut strictly inside (lo,hi)) recognize the region as
		// unsplittable instead of fragmenting the object.
		return lo
	}
}

// SingleObject reports whether region [lo, hi) overlaps exactly one
// object, returning it if so. Regions satisfying this are the search's
// terminal regions.
func (m *Map) SingleObject(lo, hi mem.Addr) (*Object, bool) {
	var found *Object
	for _, o := range m.overlapping(lo, hi) {
		if found != nil {
			return nil, false
		}
		found = o
	}
	if found == nil {
		return nil, false
	}
	return found, true
}

// overlapping returns all live objects intersecting [lo, hi).
func (m *Map) overlapping(lo, hi mem.Addr) []*Object {
	var out []*Object
	i := sort.Search(len(m.globals), func(i int) bool { return m.globals[i].End() > lo })
	for ; i < len(m.globals) && m.globals[i].Base < hi; i++ {
		out = append(out, m.globals[i])
	}
	m.heap.Ascend(func(base mem.Addr, size uint64, v rbtree.Value) bool {
		if base >= hi {
			return false
		}
		if base+mem.Addr(size) > lo {
			out = append(out, v.(*Object))
		}
		return true
	})
	for _, o := range m.stack {
		if o.End() > lo && o.Base < hi {
			out = append(out, o)
		}
	}
	return out
}

// Overlapping returns all live objects intersecting [lo, hi), in address
// order per kind (globals first, then heap, then stack).
func (m *Map) Overlapping(lo, hi mem.Addr) []*Object { return m.overlapping(lo, hi) }
