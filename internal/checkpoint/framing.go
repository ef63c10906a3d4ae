package checkpoint

import (
	"encoding/binary"
	"io"
)

// Exported framing helpers: the canonical varint/tagged-section encoding
// the MBCP1 checkpoint format is built from, reusable by other on-disk
// formats that want the same discipline (the persistent result store's
// MBRS1 records, and the private state the workloads, the sampler and
// trace replay checkpoint). The exported API wraps the package's internal
// enc/dec so every format shares one implementation of the size-capped,
// never-trust-a-declared-length decode rules.

// Enc accumulates one canonical binary payload: varint integers,
// single-byte bools, and length-prefixed strings and blobs.
type Enc struct{ e enc }

// U64 appends v as a uvarint.
func (x *Enc) U64(v uint64) { x.e.u64(v) }

// I64 appends v as a uvarint of its two's-complement bits (canonical:
// one encoding per value, no zig-zag ambiguity).
func (x *Enc) I64(v int64) { x.e.u64(uint64(v)) }

// Bool appends one byte, 0 or 1.
func (x *Enc) Bool(b bool) { x.e.bool(b) }

// Str appends a length-prefixed string.
func (x *Enc) Str(s string) { x.e.str(s) }

// Blob appends a length-prefixed byte slice.
func (x *Enc) Blob(b []byte) { x.e.blob(b) }

// U64s appends a length-prefixed uvarint sequence.
func (x *Enc) U64s(vals []uint64) {
	x.e.u64(uint64(len(vals)))
	for _, v := range vals {
		x.e.u64(v)
	}
}

// Take returns the accumulated payload and resets the encoder.
func (x *Enc) Take() []byte { return x.e.take() }

// Dec decodes one payload written by Enc. Errors latch: after the first
// malformed field every read returns a zero value, and the caller checks
// Err once at the end.
type Dec struct{ d dec }

// NewDec returns a decoder over b. The decoder reads b in place; callers
// must not mutate it while decoding.
func NewDec(b []byte) *Dec { return &Dec{d: dec{b: b}} }

// U64 reads one uvarint.
func (x *Dec) U64() uint64 { return x.d.u64() }

// I64 reads one integer written by Enc.I64.
func (x *Dec) I64() int64 { return int64(x.d.u64()) }

// Bool reads one bool byte.
func (x *Dec) Bool() bool { return x.d.bool() }

// Str reads one length-prefixed string.
func (x *Dec) Str() string { return x.d.str() }

// Blob reads one length-prefixed byte slice (copied out of the input).
func (x *Dec) Blob() []byte { return x.d.blob() }

// U64s reads one sequence written by Enc.U64s, its declared length
// validated by Count before anything is allocated.
func (x *Dec) U64s() []uint64 {
	vals := make([]uint64, x.d.count(1))
	for i := range vals {
		vals[i] = x.d.u64()
	}
	return vals
}

// Count reads an element count validated against the bytes actually
// remaining (each element occupies at least minBytes), so a hostile
// count cannot drive a huge allocation.
func (x *Dec) Count(minBytes int) uint64 { return x.d.count(minBytes) }

// Err returns the first decode error, nil while the input is well formed.
func (x *Dec) Err() error { return x.d.err }

// Remaining reports how many input bytes are left unread.
func (x *Dec) Remaining() int { return len(x.d.b) }

// WriteSection writes one tagged section: tag byte, uvarint payload
// length, payload.
func WriteSection(w io.Writer, tag byte, payload []byte) error {
	var b []byte
	b = append(b, tag)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	_, err := w.Write(b)
	return err
}

// ReadSection reads one section's declared length and payload (the tag
// byte has already been consumed by the caller). The declared length is
// validated against MaxSectionBytes and the payload is accumulated
// through a chunked limited copy, so a hostile length can never force a
// large up-front allocation.
func ReadSection(r io.Reader) ([]byte, error) { return readSection(r) }
