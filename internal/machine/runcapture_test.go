package machine

import (
	"reflect"
	"slices"
	"testing"

	"membottle/internal/cache"
	"membottle/internal/mem"
	"membottle/internal/pmu"
)

// refCollect copies out everything a RefSink is handed.
type refCollect struct {
	refs []Ref
}

func (c *refCollect) ConsumeRefs(refs []Ref, _ uint64) {
	c.refs = append(c.refs, refs...)
}

// runCollect copies out everything a RunSink is handed and tallies the
// delivery metadata.
type runCollect struct {
	entries    []uint64
	refs       uint64
	writes     uint64
	deliveries int
	tuples     []delivery
}

// delivery is one ConsumeRuns call's metadata.
type delivery struct {
	entries, refs, writes, cyclesBefore uint64
}

func (c *runCollect) ConsumeRuns(entries []uint64, refs, writes, cyclesBefore uint64) {
	c.entries = append(c.entries, entries...)
	c.refs += refs
	c.writes += writes
	c.deliveries++
	c.tuples = append(c.tuples, delivery{uint64(len(entries)), refs, writes, cyclesBefore})
}

// compactRefs is an independent reference implementation of run
// compaction: group consecutive same-line references, splitting at
// MaxRunLen, each entry carrying the run's first address.
func compactRefs(refs []Ref, lineShift uint) (entries []uint64, writes uint64) {
	lastLine := ^uint64(0)
	var pendAddr mem.Addr
	pendCnt := 0
	flush := func() {
		if pendCnt > 0 {
			entries = append(entries, mem.PackRun(pendAddr, pendCnt))
			pendCnt = 0
		}
	}
	for _, r := range refs {
		if r.Write {
			writes++
		}
		line := uint64(r.Addr) >> lineShift
		if line == lastLine && pendCnt < mem.MaxRunLen {
			pendCnt++
			continue
		}
		flush()
		lastLine = line
		pendAddr, pendCnt = r.Addr, 1
	}
	flush()
	return entries, writes
}

// driveCapture runs the same synthetic reference program — scalar loads
// and stores, batched refs, strided ranges, interleaved compute — on a
// fresh capture machine.
func driveCapture(t *testing.T, sinkRun RunSink, sinkRef RefSink) *Machine {
	t.Helper()
	space := mem.NewSpace()
	m := New(space, cache.New(cache.Config{Size: 1 << 14, LineSize: 64, Assoc: 4}), pmu.New(0), DefaultCosts())
	if sinkRun != nil {
		m.SetRunCapture(sinkRun)
	}
	if sinkRef != nil {
		m.SetCapture(sinkRef)
	}
	base, err := m.Malloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	// Scalar runs with line changes and a run longer than MaxRunLen.
	for i := 0; i < 300; i++ {
		m.Load(base) // same line 300 times: must split at 256
	}
	for i := 0; i < 40; i++ {
		m.Store(base + mem.Addr(i*8)) // 8 per line across 5 lines
		m.Compute(2)
	}
	// Batched refs with mixed lines and writes.
	refs := make([]Ref, 0, 600)
	for i := 0; i < 600; i++ {
		refs = append(refs, Ref{Addr: base + mem.Addr(i%96*16), Write: i%7 == 0, Compute: uint64(i % 3)})
	}
	m.AccessBatch(refs)
	// Strided ranges: dense (8B stride), line-width (64B), and an uneven
	// 24B stride that splits 3/3/2 across lines; loads and stores.
	m.LoadRange(base, 64<<10, 8, 0)
	m.StoreRange(base+128, 32<<10, 64, 1)
	m.LoadRange(base+4, 48<<10, 24, 2)
	m.FlushCapture()
	return m
}

// TestRunCaptureMatchesRefCapture is the run-capture correctness
// contract: the RunSink's compacted stream must expand to exactly the
// RefSink's reference stream — entry for entry against an independent
// compaction of the captured references — with identical reference,
// write, instruction, and cycle totals. This covers every capture path
// at once: scalar, batched, and the analytic range fast path (which
// never materializes per-reference work but must emit a bit-identical
// entry stream).
func TestRunCaptureMatchesRefCapture(t *testing.T) {
	var rc refCollect
	mRef := driveCapture(t, nil, &rc)
	var run runCollect
	mRun := driveCapture(t, &run, nil)

	if run.refs != uint64(len(rc.refs)) {
		t.Fatalf("run capture covered %d refs, ref capture %d", run.refs, len(rc.refs))
	}
	wantEntries, wantWrites := compactRefs(rc.refs, 6)
	if run.writes != wantWrites {
		t.Errorf("run capture tallied %d writes, reference stream holds %d", run.writes, wantWrites)
	}
	if len(run.entries) != len(wantEntries) {
		t.Fatalf("run capture produced %d entries, reference compaction %d", len(run.entries), len(wantEntries))
	}
	for i := range wantEntries {
		if run.entries[i] != wantEntries[i] {
			ga, gn := mem.UnpackRun(run.entries[i])
			wa, wn := mem.UnpackRun(wantEntries[i])
			t.Fatalf("entry %d: got addr=%#x len=%d, want addr=%#x len=%d", i, ga, gn, wa, wn)
		}
	}
	if mRun.Cycles != mRef.Cycles || mRun.Insts != mRef.Insts || mRun.AppInsts != mRef.AppInsts {
		t.Errorf("charging diverged: run capture cycles=%d insts=%d appinsts=%d, ref capture %d/%d/%d",
			mRun.Cycles, mRun.Insts, mRun.AppInsts, mRef.Cycles, mRef.Insts, mRef.AppInsts)
	}
}

// TestRunCaptureRangeMatchesScalar pins the analytic range path
// specifically: a strided LoadRange/StoreRange must produce the same
// entry stream, tallies, and charges as the equivalent per-reference
// loop, including when runs split at MaxRunLen and when a pending run
// carries across the range call boundary.
func TestRunCaptureRangeMatchesScalar(t *testing.T) {
	build := func(useRange bool) (*Machine, *runCollect) {
		var sink runCollect
		space := mem.NewSpace()
		m := New(space, cache.New(cache.Config{Size: 1 << 14, LineSize: 64, Assoc: 4}), pmu.New(0), DefaultCosts())
		m.SetRunCapture(&sink)
		base := m.MustMalloc(1 << 20)
		m.Load(base) // pending run carries into the range
		for _, c := range []struct {
			off, bytes, stride, compute uint64
			write                       bool
		}{
			{0, 64 << 10, 8, 0, false},
			{128, 32 << 10, 64, 1, true},
			{4, 48 << 10, 24, 2, false},
			{0, 40_000, 8, 0, false}, // same line as the pending run's tail
		} {
			if useRange {
				if c.write {
					m.StoreRange(base+mem.Addr(c.off), c.bytes, c.stride, c.compute)
				} else {
					m.LoadRange(base+mem.Addr(c.off), c.bytes, c.stride, c.compute)
				}
				continue
			}
			for off := uint64(0); off < c.bytes; off += c.stride {
				a := base + mem.Addr(c.off+off)
				if c.write {
					m.Store(a)
				} else {
					m.Load(a)
				}
				if c.compute > 0 {
					m.Compute(c.compute)
				}
			}
		}
		m.FlushCapture()
		return m, &sink
	}

	mr, ranged := build(true)
	ms, scalar := build(false)
	if ranged.refs != scalar.refs || ranged.writes != scalar.writes {
		t.Fatalf("range path covered %d refs / %d writes, scalar %d / %d",
			ranged.refs, ranged.writes, scalar.refs, scalar.writes)
	}
	if len(ranged.entries) != len(scalar.entries) {
		t.Fatalf("range path produced %d entries, scalar %d", len(ranged.entries), len(scalar.entries))
	}
	for i := range scalar.entries {
		if ranged.entries[i] != scalar.entries[i] {
			ga, gn := mem.UnpackRun(ranged.entries[i])
			wa, wn := mem.UnpackRun(scalar.entries[i])
			t.Fatalf("entry %d: range addr=%#x len=%d, scalar addr=%#x len=%d", i, ga, gn, wa, wn)
		}
	}
	if mr.Cycles != ms.Cycles || mr.Insts != ms.Insts || mr.AppInsts != ms.AppInsts {
		t.Errorf("charging diverged: range cycles=%d insts=%d appinsts=%d, scalar %d/%d/%d",
			mr.Cycles, mr.Insts, mr.AppInsts, ms.Cycles, ms.Insts, ms.AppInsts)
	}
}

// TestRunCaptureDeliveryBoundaries checks the delivery bookkeeping: the
// per-delivery (entries, refs, writes) triples must always agree with
// each other (a pending run is never split across a delivery by the
// buffer filling up — only FlushCapture splits it), and a mid-stream
// FlushCapture must not mis-attribute the next run to a stale address.
func TestRunCaptureDeliveryBoundaries(t *testing.T) {
	var sink runCollect
	space := mem.NewSpace()
	m := New(space, cache.New(cache.Config{Size: 1 << 14, LineSize: 64, Assoc: 4}), pmu.New(0), DefaultCosts())
	m.SetRunCapture(&sink)
	base := m.MustMalloc(1 << 20)

	// Enough single-ref runs to force several buffer deliveries
	// (runBufEntries entries per delivery), alternating lines so no run
	// grows past one reference.
	n := 3*runBufEntries + 17
	for i := 0; i < n; i++ {
		m.Load(base + mem.Addr(i%2*64+i/2*128))
	}
	m.FlushCapture()
	if sink.deliveries < 3 {
		t.Fatalf("expected several deliveries, got %d", sink.deliveries)
	}
	if sink.refs != uint64(n) || len(sink.entries) != n {
		t.Fatalf("delivered %d refs in %d entries, want %d single-ref runs", sink.refs, len(sink.entries), n)
	}

	// Flush mid-run, then touch a different line: the entry after the
	// flush must carry the new address, not extend the flushed run.
	sink = runCollect{}
	m.SetRunCapture(&sink)
	m.Load(base)
	m.Load(base)
	m.FlushCapture()
	m.Load(base + 64)
	m.FlushCapture()
	if len(sink.entries) != 2 {
		t.Fatalf("got %d entries, want 2", len(sink.entries))
	}
	a0, n0 := mem.UnpackRun(sink.entries[0])
	a1, n1 := mem.UnpackRun(sink.entries[1])
	if a0 != base || n0 != 2 || a1 != base+64 || n1 != 1 {
		t.Errorf("entries (%#x,%d) (%#x,%d), want (%#x,2) (%#x,1)", a0, n0, a1, n1, base, base+64)
	}
}

// foldCaptureRange is the reference run-capture range path: the
// per-line fold loop with its own copies of the fold and flush steps,
// one foldRun/flushRun round trip per line whatever the stride.
func foldCaptureRange(m *Machine, base mem.Addr, bytes, stride, computePer uint64, write bool) {
	if m.stopErr != nil || bytes == 0 {
		return
	}
	n := (bytes + stride - 1) / stride
	if m.runBufRefs == 0 && m.runPendCnt == 0 {
		m.runCyc0 = m.Cycles
	}
	insts := n + n*computePer
	m.Insts += insts
	if !m.inHandler {
		m.AppInsts += insts
	}
	m.Cycles += n*m.Cost.HitCycles + n*computePer*m.Cost.ComputeCPI
	shift := m.runShift
	off, end := uint64(base), uint64(base)+bytes
	for off < end {
		line := off >> shift
		stop := (line + 1) << shift
		if stop > end {
			stop = end
		}
		cnt := (stop - off + stride - 1) / stride
		foldRunRef(m, mem.Addr(off), line, cnt, stride, write)
		off += cnt * stride
	}
}

func foldRunRef(m *Machine, addr mem.Addr, line, cnt, stride uint64, write bool) {
	if line != m.runLastLine {
		if m.runPendCnt != 0 {
			flushRunRef(m)
		}
		m.runLastLine = line
	}
	for cnt > 0 {
		if m.runPendCnt == mem.MaxRunLen {
			flushRunRef(m)
		}
		if m.runPendCnt == 0 {
			m.runPendAddr = addr
		}
		take := uint64(mem.MaxRunLen - m.runPendCnt)
		if take > cnt {
			take = cnt
		}
		m.runPendCnt += int(take)
		if write {
			m.runPendWr += take
		}
		cnt -= take
		addr += mem.Addr(take * stride)
	}
}

func flushRunRef(m *Machine) {
	m.runBuf = append(m.runBuf, mem.PackRun(m.runPendAddr, m.runPendCnt))
	m.runBufRefs += uint64(m.runPendCnt)
	m.runBufWrites += m.runPendWr
	m.runPendCnt, m.runPendWr = 0, 0
	if len(m.runBuf) == cap(m.runBuf) {
		m.deliverRuns()
	}
}

// FuzzRunCaptureRangeMatchesFold is the exactness oracle for run
// capture's whole-line fast path. One program — preN loads on the range's
// first line (a pending run carried in, split at MaxRunLen when long),
// a strided LoadRange or StoreRange, then optionally a load of the
// range's last reference (extending the run it left pending) — runs
// three ways: through captureRunRange, through the reference per-line
// fold loop, and as per-reference Load/Store and Compute calls. The
// first two must agree on every entry, every delivery's (entries, refs,
// writes, cyclesBefore) and the machine's Cycles/Insts/AppInsts; the
// per-reference run must produce the same entries, reference and write
// totals, and charges. Inputs: line size 32 to 512 bytes (a 512-byte
// line at stride 1 exceeds MaxRunLen per line), a stride from 1 byte to
// about four lines, the start's offset into its line, and a length up to
// 1 MiB, long enough to cross several runBufEntries deliveries.
func FuzzRunCaptureRangeMatchesFold(f *testing.F) {
	// lineSel, stride, phase, bytes, computePer, write, preN, tail
	for _, s := range []uint16{1, 8, 24, 64, 128} {
		f.Add(uint8(1), s, uint16(0), uint32(64<<10), uint8(0), false, uint16(0), false)
		f.Add(uint8(1), s, uint16(3), uint32(10_000+5), uint8(1), true, uint16(0), true)
	}
	f.Add(uint8(1), uint16(8), uint16(4), uint32(4096+20), uint8(0), false, uint16(0), false) // phase < stride
	f.Add(uint8(1), uint16(8), uint16(40), uint32(4096+20), uint8(2), true, uint16(0), true)  // phase >= stride
	f.Add(uint8(1), uint16(8), uint16(0), uint32(4096+36), uint8(0), false, uint16(1), true)  // ends mid-line, pending carried in
	f.Add(uint8(1), uint16(8), uint16(0), uint32(56), uint8(0), false, uint16(0), true)       // ends just before a line's last ref
	f.Add(uint8(1), uint16(8), uint16(0), uint32(4096), uint8(0), true, uint16(250), false)   // carried run splits at MaxRunLen
	f.Add(uint8(1), uint16(8), uint16(0), uint32(1<<20), uint8(0), false, uint16(3), true)    // four deliveries
	// Three full deliveries at stride = line.
	f.Add(uint8(1), uint16(64), uint16(8), uint32(3*runBufEntries*64+200), uint8(1), true, uint16(0), false)
	f.Add(uint8(4), uint16(1), uint16(7), uint32(8192+3), uint8(0), false, uint16(2), true) // 512 refs per line
	f.Add(uint8(3), uint16(2), uint16(1), uint32(8192), uint8(0), false, uint16(0), false)  // 128 refs per line
	f.Fuzz(func(t *testing.T, lineSel uint8, stride, phase uint16, bytes uint32, computePer uint8,
		write bool, preN uint16, tail bool) {
		lineSize := uint64(32) << (lineSel % 5)
		s := max(1, uint64(stride)%(4*lineSize+1))
		n := uint64(bytes) % (1<<20 + 1)
		cp := uint64(computePer % 4)
		pre := int(preN % 300)

		type mode int
		const (
			fast mode = iota
			fold
			perRef
		)
		run := func(md mode) (*Machine, *runCollect) {
			var rec runCollect
			cfg := cache.Config{Size: 1 << 14, LineSize: int(lineSize), Assoc: 4}
			m := New(mem.NewSpace(), cache.New(cfg), pmu.New(0), DefaultCosts())
			m.SetRunCapture(&rec)
			base := m.MustMalloc(2<<20) + mem.Addr(uint64(phase)%(2*lineSize))
			lineBase := base &^ mem.Addr(lineSize-1)
			for i := 0; i < pre; i++ {
				m.Load(lineBase + mem.Addr(uint64(i)%lineSize))
			}
			switch md {
			case fast:
				if write {
					m.StoreRange(base, n, s, cp)
				} else {
					m.LoadRange(base, n, s, cp)
				}
			case fold:
				foldCaptureRange(m, base, n, s, cp, write)
			case perRef:
				for off := uint64(0); off < n; off += s {
					if write {
						m.Store(base + mem.Addr(off))
					} else {
						m.Load(base + mem.Addr(off))
					}
					if cp > 0 {
						m.Compute(cp)
					}
				}
			}
			if tail && n > 0 {
				m.Load(base + mem.Addr((n-1)/s*s))
			}
			m.FlushCapture()
			return m, &rec
		}
		mf, got := run(fast)
		mo, want := run(fold)
		ms, scalar := run(perRef)

		if !reflect.DeepEqual(got.entries, want.entries) {
			t.Fatalf("entries diverge from the fold loop: %d vs %d entries, first difference at %d",
				len(got.entries), len(want.entries), firstDiff(got.entries, want.entries))
		}
		if !reflect.DeepEqual(got.tuples, want.tuples) {
			t.Fatalf("deliveries diverge from the fold loop:\n got %v\nwant %v", got.tuples, want.tuples)
		}
		if !reflect.DeepEqual(got.entries, scalar.entries) {
			t.Fatalf("entries diverge from per-reference capture: %d vs %d entries, first difference at %d",
				len(got.entries), len(scalar.entries), firstDiff(got.entries, scalar.entries))
		}
		if got.refs != scalar.refs || got.writes != scalar.writes {
			t.Fatalf("range covered %d refs / %d writes, per-reference capture %d / %d",
				got.refs, got.writes, scalar.refs, scalar.writes)
		}
		for _, o := range []*Machine{mo, ms} {
			if mf.Cycles != o.Cycles || mf.Insts != o.Insts || mf.AppInsts != o.AppInsts {
				t.Fatalf("charging diverged: cycles=%d insts=%d appinsts=%d, want %d/%d/%d",
					mf.Cycles, mf.Insts, mf.AppInsts, o.Cycles, o.Insts, o.AppInsts)
			}
		}
	})
}

// pairRefs materialises StorePairRange(a, b, bytes, stride, computePer)
// as the Ref stream AccessBatch would take.
func pairRefs(a, b mem.Addr, bytes, stride, computePer uint64) []Ref {
	var refs []Ref
	for off := uint64(0); off < bytes; off += stride {
		refs = append(refs,
			Ref{Addr: a + mem.Addr(off), Write: true},
			Ref{Addr: b + mem.Addr(off), Write: true, Compute: computePer})
	}
	return refs
}

// firstDiff is the first index where a and b differ (len of the shorter
// when one is a prefix of the other).
func firstDiff(a, b []uint64) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// FuzzRunCapturePairMatchesFold is the exactness oracle for
// StorePairRange's capture paths. One program — fill single-reference
// runs far from both arrays (setting how full the entry buffer is),
// preN loads on a's first line (a pending run carried in), the pair
// range, then optionally a store of its last b element (extending the
// run it left pending) — runs twice in run-capture mode: once through
// StorePairRange and once with the call's references materialised and
// fed through one AccessBatch. Both must agree on every entry, every
// delivery's (entries, refs, writes, cyclesBefore) and the machine's
// Cycles/Insts/AppInsts. The same program through a RefSink must
// expand to the Refs, compute payloads included, that the AccessBatch
// version delivers and to the reference stream a live machine's OnRef
// hook sees, with delivery cycle stamps that add up to the machine's
// clock. Inputs: line
// size 32 to 128 bytes, a stride from 1 byte to three lines, a's offset
// into its line, b within 1 MiB of a on either side (on a's line, one
// stride past it, or below it), and up to 64 KiB per array.
func FuzzRunCapturePairMatchesFold(f *testing.F) {
	// lineSel, gap (b-a), stride, phase, bytes, computePer, preN, fill, tail
	const far = 1 << 19
	f.Add(uint8(1), int32(far), uint16(8), uint16(0), uint16(8192), uint8(4), uint16(5), uint16(0), true)        // pending run on a's line
	f.Add(uint8(1), int32(far), uint16(8), uint16(0), uint16(8192), uint8(4), uint16(1), uint16(4095), false)    // one free slot
	f.Add(uint8(1), int32(far), uint16(8), uint16(3), uint16(8192), uint8(0), uint16(0), uint16(4096), true)     // one free slot, no pending run
	f.Add(uint8(1), int32(far+7), uint16(100), uint16(9), uint16(30000), uint8(1), uint16(0), uint16(0), false)  // stride above a line
	f.Add(uint8(1), int32(far), uint16(8), uint16(0), uint16(8192), uint8(4), uint16(1), uint16(2049), false)    // the call's last entry fills the buffer
	f.Add(uint8(1), int32(24), uint16(100), uint16(0), uint16(4096), uint8(1), uint16(0), uint16(0), false)      // b on a's line, stride above a line
	f.Add(uint8(1), int32(24), uint16(8), uint16(0), uint16(4096), uint8(2), uint16(3), uint16(0), true)         // b on a's line
	f.Add(uint8(1), int32(64), uint16(8), uint16(0), uint16(4096), uint8(2), uint16(0), uint16(0), false)        // b(i) on a(i+1)'s line
	f.Add(uint8(1), int32(128), uint16(64), uint16(0), uint16(4096), uint8(0), uint16(0), uint16(0), true)       // b(i) a line past a(i+1)
	f.Add(uint8(0), int32(-far), uint16(8), uint16(0), uint16(65535), uint8(3), uint16(300), uint16(2000), true) // b below a, four deliveries
	f.Fuzz(func(t *testing.T, lineSel uint8, gap int32, stride, phase, bytes uint16, computePer uint8,
		preN, fill uint16, tail bool) {
		lineSize := uint64(32) << (lineSel % 3)
		s := max(1, uint64(stride)%(3*lineSize+1))
		n := uint64(bytes)
		cp := uint64(computePer % 8)
		pre := int(preN % 300)
		fills := int(fill) % (2 * runBufEntries)
		cfg := cache.Config{Size: 1 << 14, LineSize: int(lineSize), Assoc: 4}
		a := mem.Addr(0x200_0000 + uint64(phase)%(2*lineSize))
		b := mem.Addr(int64(a) + int64(gap%(1<<20)))

		prog := func(m *Machine, call func()) {
			for i := 0; i < fills; i++ {
				m.Load(mem.Addr(0x10_0000 + uint64(i%2)*2*lineSize))
			}
			lineBase := a &^ mem.Addr(lineSize-1)
			for i := 0; i < pre; i++ {
				m.Load(lineBase + mem.Addr(uint64(i)%lineSize))
			}
			call()
			if tail && n > 0 {
				m.Store(b + mem.Addr((n-1)/s*s))
			}
			m.FlushCapture()
		}
		runCapture := func(pair bool) (*Machine, *runCollect) {
			var rec runCollect
			m := New(mem.NewSpace(), cache.New(cfg), pmu.New(0), DefaultCosts())
			m.SetRunCapture(&rec)
			prog(m, func() {
				if pair {
					m.StorePairRange(a, b, n, s, cp)
					return
				}
				m.AccessBatch(pairRefs(a, b, n, s, cp))
			})
			return m, &rec
		}
		mp, got := runCapture(true)
		mb, want := runCapture(false)
		if !reflect.DeepEqual(got.entries, want.entries) {
			t.Fatalf("entries diverge from AccessBatch: %d vs %d entries, first difference at %d",
				len(got.entries), len(want.entries), firstDiff(got.entries, want.entries))
		}
		if !reflect.DeepEqual(got.tuples, want.tuples) {
			t.Fatalf("deliveries diverge from AccessBatch:\n got %v\nwant %v", got.tuples, want.tuples)
		}
		if mp.Cycles != mb.Cycles || mp.Insts != mb.Insts || mp.AppInsts != mb.AppInsts {
			t.Fatalf("charging diverged: cycles=%d insts=%d appinsts=%d, AccessBatch %d/%d/%d",
				mp.Cycles, mp.Insts, mp.AppInsts, mb.Cycles, mb.Insts, mb.AppInsts)
		}

		type ref struct {
			addr  mem.Addr
			write bool
		}
		var log, batchLog deliveryLog
		mc := New(mem.NewSpace(), cache.New(cfg), pmu.New(0), DefaultCosts())
		mc.SetCapture(&log)
		prog(mc, func() { mc.StorePairRange(a, b, n, s, cp) })
		mcb := New(mem.NewSpace(), cache.New(cfg), pmu.New(0), DefaultCosts())
		mcb.SetCapture(&batchLog)
		prog(mcb, func() { mcb.AccessBatch(pairRefs(a, b, n, s, cp)) })
		if !reflect.DeepEqual(slices.Concat(log.refs...), slices.Concat(batchLog.refs...)) {
			t.Fatal("RefSink stream, payloads included, differs from AccessBatch's")
		}
		var seen []ref
		ml := New(mem.NewSpace(), cache.New(cfg), pmu.New(0), DefaultCosts())
		ml.OnRef = func(a mem.Addr, write bool) { seen = append(seen, ref{a, write}) }
		prog(ml, func() { ml.StorePairRange(a, b, n, s, cp) })
		var captured []ref
		cyc := uint64(0)
		for i, refs := range log.refs {
			if log.cycles[i] != cyc {
				t.Fatalf("delivery %d stamped %d cycles, its predecessors add up to %d", i, log.cycles[i], cyc)
			}
			for _, r := range refs {
				captured = append(captured, ref{r.Addr, r.Write})
				cyc += mc.Cost.HitCycles + r.Compute*mc.Cost.ComputeCPI
			}
		}
		if cyc != mc.Cycles {
			t.Fatalf("RefSink deliveries add up to %d cycles, the machine charged %d", cyc, mc.Cycles)
		}
		if !reflect.DeepEqual(captured, seen) {
			t.Fatalf("RefSink stream (%d refs) differs from the OnRef stream (%d refs)", len(captured), len(seen))
		}
		if mc.Insts != ml.Insts || mc.AppInsts != ml.AppInsts {
			t.Fatalf("RefSink capture counted %d/%d instructions, the live run %d/%d",
				mc.Insts, mc.AppInsts, ml.Insts, ml.AppInsts)
		}
	})
}
