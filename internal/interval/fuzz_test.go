package interval

import (
	"testing"

	"membottle/internal/mem"
)

// FuzzIntervalPartition drives planSpans over synthetic run-compacted
// streams delivered in arbitrary chunk sizes and checks the partition
// invariants the whole engine rests on: the spans tile the stream
// exactly in both reference space and entry space (interval refs sum to
// the captured total), every span's recorded reference count equals a
// re-walk of its entries, cuts land only on run boundaries, and a span
// overshoots its nominal size by less than one maximal run. Each input
// releases its store, so later inputs run over recycled blocks that are
// never zeroed: a read past a store's length would show up as a span
// whose re-walk disagrees with its recorded count.
func FuzzIntervalPartition(f *testing.F) {
	f.Add(uint64(1), uint(5000), uint(0), uint(100))
	f.Add(uint64(42), uint(1), uint(4096), uint(1))
	f.Add(uint64(7), uint(40000), uint(1000), uint(4096))
	f.Add(uint64(9), uint(0), uint(64), uint(16))
	// Crosses the first block boundary; the seed after it stores into
	// the blocks this one released.
	f.Add(uint64(5), uint(51_000), uint(1<<15), uint(4000))
	f.Add(uint64(11), uint(5000), uint(512), uint(700))
	f.Fuzz(func(t *testing.T, seed uint64, n, isize, chunkLen uint) {
		// Streams stay under 50,000 entries, except that n in
		// [50,000, 60,000) selects one just past the first block
		// boundary: its spans straddle two blocks, and its full-size
		// blocks reach the free list for later inputs to recycle.
		n %= 60_000
		if n >= 50_000 {
			n += blockEntries - 50_000
		}
		isize %= 1 << 16
		chunkLen = 1 + chunkLen%4096
		rng := seed | 1

		snk := &captureSink{}
		// Release the store however the input ends, so the next input
		// stores into recycled blocks that still hold this one's entries.
		defer snk.store.release()
		var buf []uint64
		var refs uint64
		emit := func() {
			snk.ConsumeRuns(buf, refs, 0, 0)
			buf, refs = buf[:0], 0
		}
		var total uint64
		for i := uint(0); i < n; i++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			ln := int(rng%mem.MaxRunLen) + 1
			a := mem.Addr((rng >> 16) & (1<<38 - 1))
			buf = append(buf, mem.PackRun(a, ln))
			refs += uint64(ln)
			total += uint64(ln)
			if uint(len(buf)) >= chunkLen {
				emit()
			}
		}
		emit()
		if snk.nRefs != total || snk.store.n != uint64(n) {
			t.Fatalf("sink holds %d refs in %d entries, delivered %d refs in %d entries",
				snk.nRefs, snk.store.n, total, n)
		}

		spans := planSpans(&snk.store, snk.marks, snk.nRefs, int(isize))
		if total == 0 {
			if len(spans) != 0 {
				t.Fatalf("empty stream planned %d spans", len(spans))
			}
			return
		}
		var r, e uint64
		for i, sp := range spans {
			if sp.Start != r || sp.estart != e {
				t.Fatalf("span %d starts at ref %d / entry %d, previous spans cover %d / %d",
					i, sp.Start, sp.estart, r, e)
			}
			if sp.Refs == 0 || sp.ecount == 0 {
				t.Fatalf("span %d is empty: %+v", i, sp)
			}
			var walked uint64
			snk.store.forSpan(sp.estart, sp.ecount, func(chunk []uint64, _ uint64) {
				for _, en := range chunk {
					walked += en&(mem.MaxRunLen-1) + 1
				}
			})
			if walked != sp.Refs {
				t.Fatalf("span %d records %d refs, its entries hold %d", i, sp.Refs, walked)
			}
			if isize > 0 && sp.Refs >= uint64(isize)+mem.MaxRunLen {
				t.Fatalf("span %d holds %d refs, more than one run past the %d target", i, sp.Refs, isize)
			}
			r += sp.Refs
			e += sp.ecount
		}
		if r != snk.nRefs || e != snk.store.n {
			t.Fatalf("spans cover %d refs / %d entries, stream holds %d / %d", r, e, snk.nRefs, snk.store.n)
		}
	})
}

// TestCutTargets pins cut's contract directly: for every reference
// target the returned boundary is the first run boundary at or past the
// target, and the returned cumulative count re-walks to the same value.
func TestCutTargets(t *testing.T) {
	snk := &captureSink{}
	runs := []int{1, 256, 3, 9, 256, 1, 1, 40}
	var total uint64
	var buf []uint64
	var refs uint64
	for i, ln := range runs {
		buf = append(buf, mem.PackRun(mem.Addr(i*4096), ln))
		refs += uint64(ln)
		total += uint64(ln)
		if i%3 == 2 { // uneven deliveries, so marks land mid-stream
			snk.ConsumeRuns(buf, refs, 0, 0)
			buf, refs = buf[:0], 0
		}
	}
	snk.ConsumeRuns(buf, refs, 0, 0)

	// prefix[i] = refs covered by the first i runs.
	prefix := make([]uint64, len(runs)+1)
	for i, ln := range runs {
		prefix[i+1] = prefix[i] + uint64(ln)
	}
	for target := uint64(0); target <= total; target++ {
		e, refs := cut(&snk.store, snk.marks, target)
		if refs != prefix[e] {
			t.Fatalf("cut(%d) = (%d, %d): entry %d covers %d refs", target, e, refs, e, prefix[e])
		}
		if refs < target {
			t.Fatalf("cut(%d) stopped short at %d refs", target, refs)
		}
		if e > 0 && prefix[e-1] >= target {
			t.Fatalf("cut(%d) overshot: previous boundary %d already covers the target", target, prefix[e-1])
		}
	}
}
