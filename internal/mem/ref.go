package mem

// Ref is one memory reference in a batch: the unit the batched simulation
// engine passes from workloads and the trace replayer down to the cache.
// Batches of consecutive Refs let the hot path process hit runs without
// the per-reference call and interrupt-check overhead of the scalar loop.
type Ref struct {
	// Addr is the effective address referenced.
	Addr Addr
	// Write distinguishes stores from loads.
	Write bool
	// Compute is the number of compute instructions the application
	// executes immediately after this reference (before the next one).
	// The cache ignores it; the machine charges it to the virtual clock
	// exactly as a scalar Compute call following the reference would.
	Compute uint64
}

// PackRef compresses a reference to one word for per-reference trace
// buffers (the form cache.Cache.Sweep replays): the address shifted
// left once with the write flag in the low bit.
// Simulated addresses top out below 2^40 (the shadow segment limit), so
// the shift never loses bits.
func PackRef(a Addr, write bool) uint64 {
	p := uint64(a) << 1
	if write {
		p |= 1
	}
	return p
}

// UnpackRef reverses PackRef.
func UnpackRef(p uint64) (Addr, bool) {
	return Addr(p >> 1), p&1 != 0
}

// Run compaction packs a maximal run of consecutive references to one
// cache line into a single word: the address of the run's first
// reference shifted left by RunShift, with the run length minus one in
// the low RunShift bits. Collapsing a run is exact with respect to cache
// misses under LRU: after the run's first reference the line is the
// most-recently-used way of its set, and with no intervening reference
// to any other line, the remaining touches can neither miss nor change
// the relative recency order between lines — only the first touch of a
// run can miss, and it carries its original address for attribution.
// Simulated addresses top out below 2^40 (the shadow segment limit), so
// the shift never loses bits.
const (
	RunShift = 8
	// MaxRunLen is the longest run one packed word can carry; longer runs
	// split into several entries, which only costs space, not exactness.
	MaxRunLen = 1 << RunShift
	runMask   = MaxRunLen - 1
)

// PackRun packs a run of n in [1, MaxRunLen] consecutive same-line
// references starting at address a.
func PackRun(a Addr, n int) uint64 {
	return uint64(a)<<RunShift | uint64(n-1)
}

// UnpackRun reverses PackRun, returning the run's first address and its
// length.
func UnpackRun(e uint64) (Addr, int) {
	return Addr(e >> RunShift), int(e&runMask) + 1
}
