// Package trace records and replays application memory-reference streams
// in a compact binary format. A recorded trace captures exactly what the
// paper's ATOM instrumentation captured — the sequence of load/store
// effective addresses plus intervening computation — and replaying it
// through a fresh System reproduces the original cache behaviour exactly,
// which makes traces useful as regression baselines and as portable
// workloads.
//
// Format (little-endian varints, magic "MBTR1\n"):
//
//	0x00 <uvarint n>         n compute instructions
//	0x01 <svarint delta>     load at lastAddr+delta
//	0x02 <svarint delta>     store at lastAddr+delta
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"membottle/internal/checkpoint"
	"membottle/internal/machine"
	"membottle/internal/mem"
)

var magic = []byte("MBTR1\n")

// Errors.
var (
	ErrBadMagic = errors.New("trace: bad magic; not a membottle trace")
	ErrCorrupt  = errors.New("trace: corrupt record")
	ErrTooLarge = errors.New("trace: trace exceeds event limit")
)

// MaxReplayEvents is the default cap on events NewReplay will compile.
// At 16 bytes per reference the compiled form of a maximal trace is
// ~4 GiB; traces beyond the cap fail with ErrTooLarge instead of
// exhausting memory. Use NewReplayLimit to override.
const MaxReplayEvents = 256 << 20

const (
	opCompute = 0x00
	opLoad    = 0x01
	opStore   = 0x02
)

// Writer encodes a reference stream.
type Writer struct {
	w        *bufio.Writer
	lastAddr uint64
	pending  uint64 // batched compute instructions
	err      error
	events   uint64
}

// NewWriter starts a trace on w.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(magic); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Events returns the number of records written so far.
func (t *Writer) Events() uint64 { return t.events }

func (t *Writer) putUvarint(v uint64) {
	if t.err != nil {
		return
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, t.err = t.w.Write(buf[:n])
}

func (t *Writer) putByte(b byte) {
	if t.err != nil {
		return
	}
	t.err = t.w.WriteByte(b)
}

// Compute records n units of computation. Consecutive calls coalesce.
func (t *Writer) Compute(n uint64) {
	t.pending += n
}

func (t *Writer) flushCompute() {
	if t.pending == 0 {
		return
	}
	t.putByte(opCompute)
	t.putUvarint(t.pending)
	t.pending = 0
	t.events++
}

// Ref records one memory reference.
func (t *Writer) Ref(a mem.Addr, write bool) {
	t.flushCompute()
	op := byte(opLoad)
	if write {
		op = opStore
	}
	t.putByte(op)
	delta := int64(uint64(a) - t.lastAddr)
	if t.err == nil {
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutVarint(buf[:], delta)
		_, t.err = t.w.Write(buf[:n])
	}
	t.lastAddr = uint64(a)
	t.events++
}

// Close flushes the trace. The underlying writer is not closed.
func (t *Writer) Close() error {
	t.flushCompute()
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

// Reader decodes a reference stream.
type Reader struct {
	r        *bufio.Reader
	lastAddr uint64
}

// NewReader opens a trace for reading, validating the magic.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadMagic, err)
	}
	for i := range magic {
		if head[i] != magic[i] {
			return nil, ErrBadMagic
		}
	}
	return &Reader{r: br}, nil
}

// Event is one decoded trace record.
type Event struct {
	// Compute > 0 means a computation record; otherwise a reference.
	Compute uint64
	Addr    mem.Addr
	Write   bool
}

// Next decodes one record. It returns io.EOF at a clean end of trace.
func (t *Reader) Next() (Event, error) {
	op, err := t.r.ReadByte()
	if err != nil {
		return Event{}, err // io.EOF at end
	}
	switch op {
	case opCompute:
		n, err := binary.ReadUvarint(t.r)
		if err != nil {
			return Event{}, fmt.Errorf("%w: compute: %w", ErrCorrupt, err)
		}
		return Event{Compute: n}, nil
	case opLoad, opStore:
		delta, err := binary.ReadVarint(t.r)
		if err != nil {
			return Event{}, fmt.Errorf("%w: ref: %w", ErrCorrupt, err)
		}
		t.lastAddr += uint64(delta)
		return Event{Addr: mem.Addr(t.lastAddr), Write: op == opStore}, nil
	default:
		return Event{}, fmt.Errorf("%w: opcode %#x", ErrCorrupt, op)
	}
}

// Record runs a workload for budget application instructions on a scratch
// machine and writes its reference stream (loads, stores, and computation)
// to w. The workload's Setup runs on the scratch machine; its allocations
// and globals are not part of the trace, so replaying requires a
// compatible address-space setup or treats addresses as opaque.
func Record(w io.Writer, wl machine.Workload, m *machine.Machine, budget uint64) (*Writer, error) {
	tw, err := NewWriter(w)
	if err != nil {
		return nil, err
	}
	prevRef := m.OnRef
	lastInsts := m.AppInsts
	m.OnRef = func(a mem.Addr, write bool) {
		if prevRef != nil {
			prevRef(a, write)
		}
		// AppInsts has already been incremented for this reference, so the
		// computation executed since the previous reference is the gap
		// minus the reference instruction itself.
		if gap := m.AppInsts - lastInsts - 1; gap > 0 {
			tw.Compute(gap)
		}
		tw.Ref(a, write)
		lastInsts = m.AppInsts
	}
	m.Run(wl, budget)
	m.OnRef = prevRef
	if err := tw.Close(); err != nil {
		return nil, err
	}
	return tw, nil
}

// Replay is a machine.Workload that re-issues a decoded trace. The whole
// trace is compiled into machine.Ref batches once at load time — compute
// records fold into the preceding reference's Compute payload — so Step
// hands pre-built slices straight to the machine's batched engine with no
// per-event work; a machine in Scalar mode executes the identical
// per-event stream one reference at a time.
type Replay struct {
	name string
	// refs is the compiled reference stream, Compute payloads folded in.
	refs []mem.Ref
	// breaks are compute records that could not fold into a reference: a
	// compute at the head of the trace, or one following another compute
	// record (the Writer coalesces those, so breaks only appear in
	// hand-crafted traces). breaks[i] fires before refs[breaks[i].ref].
	breaks  []computeBreak
	nEvents int
	pos     int // next reference to issue
	nextBk  int // next break to issue

	// Faults, if set, may corrupt each Step batch before it is issued
	// (deterministic fault injection; the compiled trace itself is never
	// modified, so later wraps replay the pristine stream).
	Faults BatchFaultHook
}

// BatchFaultHook lets a fault injector corrupt replayed batches. An
// implementation returns either the batch unchanged or a corrupted copy.
type BatchFaultHook interface {
	CorruptBatch(refs []mem.Ref) []mem.Ref
}

type computeBreak struct {
	ref int // index into refs before which the computation runs
	n   uint64
}

// replayChunk is the number of references issued per Step call; budget
// overshoot is identical between batched and scalar machines because the
// chunk boundary does not depend on hit/miss behaviour.
const replayChunk = 4096

// NewReplay reads an entire trace from r and compiles it for replay,
// capped at MaxReplayEvents events.
func NewReplay(name string, r io.Reader) (*Replay, error) {
	return NewReplayLimit(name, r, MaxReplayEvents)
}

// NewReplayLimit is NewReplay with an explicit event cap: a trace with
// more than maxEvents events fails with ErrTooLarge before its compiled
// form can grow unboundedly. maxEvents <= 0 means MaxReplayEvents.
func NewReplayLimit(name string, r io.Reader, maxEvents int) (*Replay, error) {
	if maxEvents <= 0 {
		maxEvents = MaxReplayEvents
	}
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	rp := &Replay{name: name}
	for {
		ev, err := tr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if rp.nEvents >= maxEvents {
			return nil, fmt.Errorf("%w: more than %d events", ErrTooLarge, maxEvents)
		}
		rp.nEvents++
		if ev.Compute > 0 {
			if n := len(rp.refs); n > 0 && rp.refs[n-1].Compute == 0 {
				rp.refs[n-1].Compute = ev.Compute
			} else {
				rp.breaks = append(rp.breaks, computeBreak{ref: len(rp.refs), n: ev.Compute})
			}
			continue
		}
		rp.refs = append(rp.refs, mem.Ref{Addr: ev.Addr, Write: ev.Write})
	}
	if rp.nEvents == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	return rp, nil
}

// Len returns the number of events in the trace.
func (r *Replay) Len() int { return r.nEvents }

// Refs returns the number of memory references in the trace.
func (r *Replay) Refs() int { return len(r.refs) }

// Reset rewinds the replay to the start of the trace, so one compiled
// trace can drive several fresh machines.
func (r *Replay) Reset() {
	r.pos = 0
	r.nextBk = 0
}

// Name implements machine.Workload.
func (r *Replay) Name() string { return "replay:" + r.name }

// Setup implements machine.Workload. Replay performs no allocation; pair
// it with RegisterExtent or a matching workload Setup if object-level
// attribution is wanted.
func (r *Replay) Setup(m *machine.Machine) {}

// Step replays a bounded chunk of the trace, wrapping at the end.
func (r *Replay) Step(m *machine.Machine) {
	if len(r.refs) == 0 {
		// Degenerate compute-only trace: one full cycle per Step.
		for _, bk := range r.breaks {
			m.Compute(bk.n)
		}
		return
	}
	for issued := 0; issued < replayChunk; {
		for r.nextBk < len(r.breaks) && r.breaks[r.nextBk].ref == r.pos {
			m.Compute(r.breaks[r.nextBk].n)
			r.nextBk++
		}
		end := r.pos + (replayChunk - issued)
		if end > len(r.refs) {
			end = len(r.refs)
		}
		if r.nextBk < len(r.breaks) && r.breaks[r.nextBk].ref < end {
			end = r.breaks[r.nextBk].ref
		}
		batch := r.refs[r.pos:end]
		if r.Faults != nil {
			batch = r.Faults.CorruptBatch(batch)
		}
		m.AccessBatch(batch)
		issued += end - r.pos
		r.pos = end
		if r.pos == len(r.refs) {
			// Trailing breaks (a compute at the very end of the trace)
			// fire before wrapping.
			for r.nextBk < len(r.breaks) {
				m.Compute(r.breaks[r.nextBk].n)
				r.nextBk++
			}
			r.pos, r.nextBk = 0, 0
		}
	}
}

// ReplayOnce issues every event in the trace exactly once, regardless of
// instruction budgets — a bit-exact re-execution of the recorded run.
func (r *Replay) ReplayOnce(m *machine.Machine) {
	pos, bk := 0, 0
	for pos < len(r.refs) {
		for bk < len(r.breaks) && r.breaks[bk].ref == pos {
			m.Compute(r.breaks[bk].n)
			bk++
		}
		end := len(r.refs)
		if bk < len(r.breaks) && r.breaks[bk].ref < end {
			end = r.breaks[bk].ref
		}
		m.AccessBatch(r.refs[pos:end])
		pos = end
	}
	for ; bk < len(r.breaks); bk++ {
		m.Compute(r.breaks[bk].n)
	}
}

// CheckpointState implements machine.Checkpointer: a replay's private
// state is just its stream position.
func (r *Replay) CheckpointState() ([]byte, error) {
	var e checkpoint.Enc
	e.U64(uint64(r.pos))
	e.U64(uint64(r.nextBk))
	return e.Take(), nil
}

// RestoreState implements machine.Checkpointer.
func (r *Replay) RestoreState(data []byte) error {
	d := checkpoint.NewDec(data)
	pos, nextBk := d.U64(), d.U64()
	if d.Err() != nil || d.Remaining() != 0 {
		return fmt.Errorf("%w: replay state", ErrCorrupt)
	}
	if pos > uint64(len(r.refs)) || nextBk > uint64(len(r.breaks)) {
		return fmt.Errorf("%w: replay position out of range", ErrCorrupt)
	}
	r.pos = int(pos)
	r.nextBk = int(nextBk)
	return nil
}
