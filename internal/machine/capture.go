package machine

import (
	"math/bits"

	"membottle/internal/mem"
)

// Capture mode: the machine executes a workload's instruction stream —
// charging base costs (hit cycles, compute CPI, allocator costs) to the
// virtual clock and counting instructions exactly as a live run would —
// but routes every memory reference to a sink instead of the cache.
// Cache outcomes never influence an uninstrumented workload's reference
// stream (workloads branch on instruction budgets, not on cycles), so
// the stream can be captured once and simulated offline afterwards.
//
// The capture-based ground-truth engines (internal/shard and
// internal/interval, both driven by internal/capture) consume the
// run-compacted RunSink stream. The per-reference RefSink stream is kept
// as the differential reference the run stream is tested against, and
// for the benchmark's capture and sweep probes.

// RefSink consumes the application reference stream in capture mode.
type RefSink interface {
	// ConsumeRefs receives the next consecutive slice of the reference
	// stream together with the machine's virtual cycle count immediately
	// before the first reference in the slice. Reconstructing per-reference
	// cycle counts is pure arithmetic from there: each reference adds
	// HitCycles, then its Compute payload times ComputeCPI — identical to
	// the machine's own eager charging. The slice is reused by the machine;
	// implementations must copy what they keep before returning.
	ConsumeRefs(refs []Ref, cyclesBefore uint64)
}

// RunSink consumes the application reference stream run-compacted: each
// entry is a mem.PackRun word covering one maximal run of consecutive
// references to a single cache line. Compacting in the machine's own
// capture pass means the stream is walked exactly once however it is
// stored, and the collapse loses no miss (see mem.PackRun).
type RunSink interface {
	// ConsumeRuns receives the next consecutive run entries of the
	// reference stream, the number of references and writes they cover,
	// and the machine's virtual cycle count near the first of those
	// references (delivery-granular, for approximate timestamps). The
	// slice is reused by the machine; implementations must copy what they
	// keep before returning. A run can split across deliveries; the split
	// costs an extra entry, never a changed miss outcome.
	ConsumeRuns(entries []uint64, refs, writes, cyclesBefore uint64)
}

// runBufEntries is the run-capture delivery granularity: 32 KiB of
// entries, small enough to stay cache-resident between the machine's
// fill and the sink's copy-out.
const runBufEntries = 1 << 12

// SetCapture switches the machine into (or out of, with nil) capture
// mode. Capture mode is only meaningful for uninstrumented runs: no
// cache is simulated, so no misses occur, no PMU events fire, and the
// OnMiss/OnRef/OnAccess observers are never invoked. Call FlushCapture
// when the run completes to deliver any buffered scalar references.
// Mutually exclusive with SetRunCapture.
func (m *Machine) SetCapture(s RefSink) {
	m.capture = s
	m.capturing = s != nil || m.runSink != nil
	if s != nil && m.capBuf == nil {
		m.capBuf = make([]Ref, 0, batchChunk)
	}
}

// SetRunCapture switches the machine into (or out of, with nil)
// run-compacted capture mode: references flow to the RunSink as packed
// same-line runs, detected against the machine's own cache line size in
// the same pass that charges their cost. Mutually exclusive with
// SetCapture. Call FlushCapture when the run completes to deliver the
// pending run and any buffered entries.
func (m *Machine) SetRunCapture(s RunSink) {
	m.runSink = s
	m.capturing = s != nil || m.capture != nil
	if s == nil {
		return
	}
	m.runShift = uint(bits.TrailingZeros(uint(m.Cache.Config().LineSize)))
	if m.runBuf == nil {
		m.runBuf = make([]uint64, 0, runBufEntries)
	}
	m.runBuf = m.runBuf[:0]
	m.runLastLine = ^uint64(0)
	m.runPendCnt, m.runPendWr = 0, 0
	m.runBufRefs, m.runBufWrites = 0, 0
}

// FlushCapture delivers anything still staged in capture mode: buffered
// scalar references (RefSink) or the pending run and buffered entries
// (RunSink). A no-op outside capture mode.
func (m *Machine) FlushCapture() {
	if m.runSink != nil {
		if m.runPendCnt != 0 {
			m.flushRun()
		}
		m.runLastLine = ^uint64(0)
		m.deliverRuns()
		return
	}
	if m.capture != nil {
		m.flushCapBuf()
	}
}

// captureRef is the capture-mode scalar path: charge the base cost, then
// buffer the reference so that intervening Compute calls can fold into
// its payload (preserving the Ref stream's "compute follows reference"
// shape without a sink call per reference).
func (m *Machine) captureRef(a mem.Addr, write bool) {
	if m.runSink != nil {
		m.captureRunRef(a, write)
		return
	}
	if m.stopErr != nil {
		return
	}
	m.Insts++
	if !m.inHandler {
		m.AppInsts++
	}
	if len(m.capBuf) == 0 {
		m.capCyc0 = m.Cycles
	}
	m.Cycles += m.Cost.HitCycles
	m.capBuf = append(m.capBuf, Ref{Addr: a, Write: write})
	if len(m.capBuf) == cap(m.capBuf) {
		m.flushCapBuf()
	}
	if m.runCtx != nil {
		if m.pollIn--; m.pollIn <= 0 {
			m.pollCtx()
		}
	}
}

// captureBatch is the capture-mode batched path: one pass sums the
// compute payloads for the clock, then the whole slice goes to the sink.
func (m *Machine) captureBatch(refs []Ref) {
	if m.runSink != nil {
		m.captureRunBatch(refs)
		return
	}
	if m.stopErr != nil || len(refs) == 0 {
		return
	}
	m.flushCapBuf()
	cyc0 := m.Cycles
	var compute uint64
	for i := range refs {
		compute += refs[i].Compute
	}
	insts := uint64(len(refs)) + compute
	m.Insts += insts
	if !m.inHandler {
		m.AppInsts += insts
	}
	m.Cycles += uint64(len(refs))*m.Cost.HitCycles + compute*m.Cost.ComputeCPI
	m.capture.ConsumeRefs(refs, cyc0)
	if m.runCtx != nil {
		m.pollIn -= len(refs)
		if m.pollIn <= 0 {
			m.pollCtx()
		}
	}
}

func (m *Machine) flushCapBuf() {
	if len(m.capBuf) == 0 {
		return
	}
	m.capture.ConsumeRefs(m.capBuf, m.capCyc0)
	m.capBuf = m.capBuf[:0]
}

// captureRange is the RefSink path of the range helpers: the range is
// staged in capBuf and delivered a full buffer at a time, the same slices
// and cycle stamps as AccessBatch calls on the materialised range in
// capBuf-sized chunks. capBuf is left empty, so a trailing Compute call
// does not fold into the range's last reference.
func (m *Machine) captureRange(base mem.Addr, bytes, stride, computePer uint64, write bool) {
	if m.stopErr != nil || bytes == 0 {
		return
	}
	m.flushCapBuf()
	perRef := m.Cost.HitCycles + computePer*m.Cost.ComputeCPI
	for off := uint64(0); off < bytes; {
		if m.stopErr != nil {
			return
		}
		buf := m.capBuf
		for ; off < bytes && len(buf) < cap(buf); off += stride {
			buf = append(buf, Ref{Addr: base + mem.Addr(off), Write: write, Compute: computePer})
		}
		n := uint64(len(buf))
		m.Insts += n * (1 + computePer)
		if !m.inHandler {
			m.AppInsts += n * (1 + computePer)
		}
		m.capCyc0 = m.Cycles
		m.Cycles += n * perRef
		m.capBuf = buf
		m.flushCapBuf()
		if m.runCtx != nil {
			m.pollIn -= int(n)
			if m.pollIn <= 0 {
				m.pollCtx()
			}
		}
	}
}

// capturePairs is the RefSink path of StorePairRange: the pairs are
// staged in capBuf, the element's compute riding on its second store,
// and delivered a full buffer at a time as captureRange delivers a
// range. capBuf's capacity is even, so no pair straddles a delivery.
func (m *Machine) capturePairs(a, b mem.Addr, bytes, stride, computePer uint64) {
	if m.stopErr != nil || bytes == 0 {
		return
	}
	m.flushCapBuf()
	perPair := 2*m.Cost.HitCycles + computePer*m.Cost.ComputeCPI
	for off := uint64(0); off < bytes; {
		if m.stopErr != nil {
			return
		}
		buf := m.capBuf
		for ; off < bytes && len(buf)+2 <= cap(buf); off += stride {
			buf = append(buf,
				Ref{Addr: a + mem.Addr(off), Write: true},
				Ref{Addr: b + mem.Addr(off), Write: true, Compute: computePer})
		}
		n := uint64(len(buf)) / 2
		m.Insts += n * (2 + computePer)
		if !m.inHandler {
			m.AppInsts += n * (2 + computePer)
		}
		m.capCyc0 = m.Cycles
		m.Cycles += n * perPair
		m.capBuf = buf
		m.flushCapBuf()
		if m.runCtx != nil {
			m.pollIn -= int(2 * n)
			if m.pollIn <= 0 {
				m.pollCtx()
			}
		}
	}
}

// captureRunRef is the run-capture scalar path: charge the base cost,
// then fold the reference into the pending same-line run, emitting a
// packed entry only when the line changes (or a run saturates). The
// write tally rides on the pending run so delivered (entries, refs,
// writes) triples always agree.
func (m *Machine) captureRunRef(a mem.Addr, write bool) {
	if m.stopErr != nil {
		return
	}
	m.Insts++
	if !m.inHandler {
		m.AppInsts++
	}
	if m.runBufRefs == 0 && m.runPendCnt == 0 {
		m.runCyc0 = m.Cycles
	}
	m.Cycles += m.Cost.HitCycles
	line := uint64(a) >> m.runShift
	if line == m.runLastLine && m.runPendCnt < mem.MaxRunLen {
		m.runPendCnt++
	} else {
		if m.runPendCnt != 0 {
			m.flushRun()
		}
		m.runPendAddr, m.runLastLine, m.runPendCnt = a, line, 1
	}
	if write {
		m.runPendWr++
	}
	if m.runCtx != nil {
		if m.pollIn--; m.pollIn <= 0 {
			m.pollCtx()
		}
	}
}

// captureRunBatch is the run-capture batched path: one fused pass sums
// the compute payloads for the clock and folds every reference into the
// pending run. This single loop is the whole per-reference cost of the
// capture engines' batched capture, so it works on locals and writes
// machine state back once per chunk.
func (m *Machine) captureRunBatch(refs []Ref) {
	if m.stopErr != nil || len(refs) == 0 {
		return
	}
	if m.runBufRefs == 0 && m.runPendCnt == 0 {
		m.runCyc0 = m.Cycles
	}
	lastLine, pendCnt := m.runLastLine, m.runPendCnt
	pendAddr, pendWr := m.runPendAddr, m.runPendWr
	shift := m.runShift
	var compute uint64
	total := uint64(len(refs))
	for len(refs) > 0 {
		free := cap(m.runBuf) - len(m.runBuf)
		if free == 0 {
			m.deliverRuns()
			continue
		}
		chunk := refs
		if len(chunk) > free {
			chunk = chunk[:free]
		}
		// Each reference appends at most one entry, so a chunk bounded by
		// the buffer's free space needs no capacity checks inside the loop.
		buf := m.runBuf
		bufRefs, bufWr := m.runBufRefs, m.runBufWrites
		for i := range chunk {
			r := &chunk[i]
			compute += r.Compute
			line := uint64(r.Addr) >> shift
			if line == lastLine && pendCnt < mem.MaxRunLen {
				pendCnt++
			} else {
				if pendCnt != 0 {
					buf = append(buf, mem.PackRun(pendAddr, pendCnt))
					bufRefs += uint64(pendCnt)
					bufWr += pendWr
				}
				pendAddr, lastLine, pendCnt = r.Addr, line, 1
				pendWr = 0
			}
			if r.Write {
				pendWr++
			}
		}
		m.runBuf = buf
		m.runBufRefs, m.runBufWrites = bufRefs, bufWr
		refs = refs[len(chunk):]
	}
	m.runLastLine, m.runPendCnt = lastLine, pendCnt
	m.runPendAddr, m.runPendWr = pendAddr, pendWr
	insts := total + compute
	m.Insts += insts
	if !m.inHandler {
		m.AppInsts += insts
	}
	m.Cycles += total*m.Cost.HitCycles + compute*m.Cost.ComputeCPI
	if len(m.runBuf) == cap(m.runBuf) {
		m.deliverRuns()
	}
	if m.runCtx != nil {
		m.pollIn -= int(total)
		if m.pollIn <= 0 {
			m.pollCtx()
		}
	}
}

// captureRunPairs is the run-capture path of StorePairRange. Its
// entries, tallies and every delivery's (entries, refs, writes,
// cyclesBefore) are those of captureRunBatch on the same call's
// materialised references: the buffer is delivered when full before the
// next reference is folded, and the call's cost is charged after its
// last entry. The first element folds per reference, since its a store
// may extend the pending run. When no two consecutive references can
// share a line, every later reference ends the run before it as a
// single-reference run, so those entries are written straight into the
// buffer a free span at a time and the last b store stays pending.
// Otherwise every element folds per reference.
func (m *Machine) captureRunPairs(a, b mem.Addr, bytes, stride, computePer uint64) {
	if m.stopErr != nil || bytes == 0 {
		return
	}
	n := (bytes + stride - 1) / stride
	if m.runBufRefs == 0 && m.runPendCnt == 0 {
		m.runCyc0 = m.Cycles
	}
	m.foldRef(a)
	m.foldRef(b)
	lineSize := int64(1) << m.runShift
	if d := int64(b - a); absInt64(d) >= lineSize && absInt64(d-int64(stride)) >= lineSize {
		// The pending run is b's first store; each later element flushes
		// the b store before it and its own a store.
		next, other := mem.PackRun(b, 1), mem.PackRun(a+mem.Addr(stride), 1)
		step := stride << mem.RunShift
		for k := 2 * (n - 1); k > 0; {
			if len(m.runBuf) == cap(m.runBuf) {
				m.deliverRuns()
			}
			span := min(uint64(cap(m.runBuf)-len(m.runBuf)), k)
			fill := m.runBuf[len(m.runBuf) : len(m.runBuf)+int(span)]
			for i := range fill {
				fill[i] = next
				next, other = other, next+step
			}
			m.runBuf = m.runBuf[:len(m.runBuf)+int(span)]
			m.runBufRefs += span
			m.runBufWrites += span
			k -= span
		}
		last := b + mem.Addr((n-1)*stride)
		m.runPendAddr, m.runLastLine = last, uint64(last)>>m.runShift
		m.runPendCnt, m.runPendWr = 1, 1
	} else {
		for off := stride; off < bytes; off += stride {
			m.foldRef(a + mem.Addr(off))
			m.foldRef(b + mem.Addr(off))
		}
	}
	insts := n * (2 + computePer)
	m.Insts += insts
	if !m.inHandler {
		m.AppInsts += insts
	}
	m.Cycles += 2*n*m.Cost.HitCycles + n*computePer*m.Cost.ComputeCPI
	if len(m.runBuf) == cap(m.runBuf) {
		m.deliverRuns()
	}
	if m.runCtx != nil {
		m.pollIn -= int(2 * n)
		if m.pollIn <= 0 {
			m.pollCtx()
		}
	}
}

// foldRef folds one store into the pending run as captureRunBatch's
// loop does, delivering a full buffer first, and charges nothing.
func (m *Machine) foldRef(addr mem.Addr) {
	if len(m.runBuf) == cap(m.runBuf) {
		m.deliverRuns()
	}
	line := uint64(addr) >> m.runShift
	if line == m.runLastLine && m.runPendCnt < mem.MaxRunLen {
		m.runPendCnt++
	} else {
		if m.runPendCnt != 0 {
			m.runBuf = append(m.runBuf, mem.PackRun(m.runPendAddr, m.runPendCnt))
			m.runBufRefs += uint64(m.runPendCnt)
			m.runBufWrites += m.runPendWr
		}
		m.runPendAddr, m.runLastLine, m.runPendCnt = addr, line, 1
		m.runPendWr = 0
	}
	m.runPendWr++
}

func absInt64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// captureRunRange is the run-capture fast path for the strided range
// helpers: a strided sweep's same-line runs are arithmetic, so the
// entries are computed per run — never per reference — and the whole
// range's cost is one bulk charge. When the stride divides the line, the
// whole lines in the middle of the range go through captureWholeLines;
// the first and last partial lines, and every other stride, fold one
// line at a time. The resulting entry stream and every delivery are
// bit-identical to feeding the same references through the
// per-reference capture path (the machine capture tests and
// FuzzRunCaptureRangeMatchesFold enforce it).
func (m *Machine) captureRunRange(base mem.Addr, bytes, stride, computePer uint64, write bool) {
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
	lineSize := uint64(1) << shift
	off, end := uint64(base), uint64(base)+bytes
	if lineSize%stride == 0 && lineSize/stride <= mem.MaxRunLen {
		// A start at phase >= stride is a partial first line, and a start
		// on the pending run's line may extend (and split) that run: fold
		// the first line, after which every line starts at a phase below
		// the stride on a line of its own.
		if off&(lineSize-1) >= stride || off>>shift == m.runLastLine {
			off = m.foldLine(off, end, stride, write)
		}
		off = m.captureWholeLines(off, end, stride, write)
	}
	for off < end {
		off = m.foldLine(off, end, stride, write)
	}
	if m.runCtx != nil {
		m.pollIn -= int(n)
		if m.pollIn <= 0 {
			m.pollCtx()
		}
	}
}

// foldLine folds the range's references on off's line (those below end)
// into the pending run and returns the offset of the next reference.
func (m *Machine) foldLine(off, end, stride uint64, write bool) uint64 {
	line := off >> m.runShift
	stop := (line + 1) << m.runShift
	if stop > end {
		stop = end
	}
	cnt := (stop - off + stride - 1) / stride
	m.foldRun(mem.Addr(off), line, cnt, stride, write)
	return off + cnt*stride
}

// captureWholeLines emits the whole lines of a range whose stride
// divides the line into at most MaxRunLen references: off sits at a
// phase below the stride on a line other than the pending run's. Each
// line whose last reference lies below end is then exactly one entry
// PackRun(lineBase+phase, lineSize/stride), and consecutive entries
// differ by lineSize<<RunShift. The pending run is flushed once, the
// entries are written straight into the buffer a free span at a time
// with their tallies added in bulk, and the buffer is delivered exactly
// when flushRun would deliver it. The last whole line stays pending, so
// a following same-line reference still extends it. Returns the offset
// of the first reference not emitted.
func (m *Machine) captureWholeLines(off, end, stride uint64, write bool) uint64 {
	shift := m.runShift
	lineSize := uint64(1) << shift
	perLine := lineSize / stride
	last := (perLine - 1) * stride
	if off+last >= end {
		return off
	}
	lines := (end-off-last-1)>>shift + 1
	if m.runPendCnt != 0 {
		m.flushRun()
	}
	var wrPer uint64
	if write {
		wrPer = perLine
	}
	e := mem.PackRun(mem.Addr(off), int(perLine))
	step := lineSize << mem.RunShift
	for k := lines - 1; k > 0; {
		n := uint64(cap(m.runBuf) - len(m.runBuf))
		if n > k {
			n = k
		}
		fill := m.runBuf[len(m.runBuf) : len(m.runBuf)+int(n)]
		for i := range fill {
			fill[i] = e
			e += step
		}
		m.runBuf = m.runBuf[:len(m.runBuf)+int(n)]
		m.runBufRefs += n * perLine
		m.runBufWrites += n * wrPer
		k -= n
		if len(m.runBuf) == cap(m.runBuf) {
			m.deliverRuns()
		}
	}
	lastOff := off + (lines-1)*lineSize
	m.runPendAddr, m.runLastLine = mem.Addr(lastOff), lastOff>>shift
	m.runPendCnt, m.runPendWr = int(perLine), wrPer
	return lastOff + lineSize
}

// foldRun folds cnt consecutive same-line references (addr, addr+stride,
// ...) into the pending run, splitting at MaxRunLen with exactly the
// entry boundaries and portion addresses the per-reference path would
// produce.
func (m *Machine) foldRun(addr mem.Addr, line, cnt, stride uint64, write bool) {
	if line != m.runLastLine {
		if m.runPendCnt != 0 {
			m.flushRun()
		}
		m.runLastLine = line
	}
	for cnt > 0 {
		if m.runPendCnt == mem.MaxRunLen {
			m.flushRun()
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

// flushRun moves the pending run into the entry buffer, delivering the
// buffer when it fills. Callers start a new pending run (or reset the
// line sentinel) afterwards.
func (m *Machine) flushRun() {
	m.runBuf = append(m.runBuf, mem.PackRun(m.runPendAddr, m.runPendCnt))
	m.runBufRefs += uint64(m.runPendCnt)
	m.runBufWrites += m.runPendWr
	m.runPendCnt, m.runPendWr = 0, 0
	if len(m.runBuf) == cap(m.runBuf) {
		m.deliverRuns()
	}
}

// deliverRuns hands the buffered entries (never a partially accumulated
// pending run) to the sink and resets the delivery-span tallies.
func (m *Machine) deliverRuns() {
	if len(m.runBuf) == 0 {
		return
	}
	m.runSink.ConsumeRuns(m.runBuf, m.runBufRefs, m.runBufWrites, m.runCyc0)
	m.runBuf = m.runBuf[:0]
	m.runBufRefs, m.runBufWrites = 0, 0
	m.runCyc0 = m.Cycles
}
