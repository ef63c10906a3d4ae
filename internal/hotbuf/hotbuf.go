// Package hotbuf is the simulator's buffer-lease helper: a small,
// allocation-disciplined pool of fixed-capacity slices with explicit
// ownership. The hot paths (machine range batching, shard chunk
// staging, report assembly) must not allocate per call, yet several of
// them re-enter themselves — an interrupt handler delivered mid-batch
// may itself issue a batched range — so a single "reusable buffer"
// field is not enough: the nested call needs its own buffer, and that
// buffer must be retained for the next nested call rather than
// discarded.
//
// A Pool makes the ownership protocol explicit:
//
//	buf := pool.Lease()        // caller owns buf until Return
//	... append into buf ...
//	pool.Return(buf)           // ownership transfers back; buf is dead
//
// Lease pops the most recently returned buffer (LIFO, so the warm
// buffer with live cache lines is reused first) and allocates only when
// the free list is empty — once per nesting depth ever reached, after
// which the steady state allocates nothing. The allocation-gate tests
// hold the callers to that contract.
//
// A Pool is not safe for concurrent use; each goroutine that needs one
// owns one (the same single-writer discipline the machine itself has).
package hotbuf

// Pool hands out slices of length 0 and capacity at least BufCap with
// lease/return ownership. The zero value is not usable; construct with
// NewPool.
type Pool[T any] struct {
	bufCap int
	free   [][]T
	leased int
}

// NewPool returns a pool of buffers with capacity bufCap each, with
// warm buffers preallocated onto the free list. bufCap must be
// positive; warm may be zero when first-use allocation is acceptable
// (it is charged to the cold path, outside any steady state).
func NewPool[T any](bufCap, warm int) *Pool[T] {
	if bufCap <= 0 {
		panic("hotbuf: NewPool needs a positive buffer capacity")
	}
	if warm < 0 {
		warm = 0
	}
	floor := warm
	if floor < 4 {
		floor = 4
	}
	p := &Pool[T]{bufCap: bufCap, free: make([][]T, 0, floor)}
	for i := 0; i < warm; i++ {
		p.free = append(p.free, make([]T, 0, bufCap))
	}
	return p
}

// Lease transfers ownership of one empty buffer to the caller. The
// buffer has length 0 and capacity at least BufCap; the caller must
// hand it back with Return (or deliberately abandon it, surrendering
// the reuse). Leasing reuses the most recently returned buffer and
// allocates only when the free list is empty — at most once per
// nesting depth the caller ever reaches.
func (p *Pool[T]) Lease() []T {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.leased++
		return b[:0]
	}
	p.leased++
	return make([]T, 0, p.bufCap)
}

// Return transfers ownership of a leased buffer back to the pool. The
// caller must not touch buf afterwards. Appending past the buffer's
// capacity inside the lease is legal — Return keeps the grown buffer,
// so the pool adapts to the caller's high-water mark — but a buffer
// whose capacity fell below BufCap (or nil) is dropped rather than
// recycled, preserving the Lease capacity guarantee.
func (p *Pool[T]) Return(buf []T) {
	if p.leased > 0 {
		p.leased--
	}
	if cap(buf) < p.bufCap {
		return
	}
	p.free = append(p.free, buf[:0])
}

// BufCap reports the capacity guarantee of leased buffers.
func (p *Pool[T]) BufCap() int { return p.bufCap }

// Leased reports how many buffers are currently out on lease.
func (p *Pool[T]) Leased() int { return p.leased }

// Free reports how many buffers are parked on the free list.
func (p *Pool[T]) Free() int { return len(p.free) }
