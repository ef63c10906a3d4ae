// Package store is the persistent, content-addressed result store:
// cross-invocation memoization of deterministic simulation results.
// Every table, figure, ablation, and sensitivity sweep begins from the
// same uninstrumented baseline runs, and repeated invocations of the
// CLIs re-simulate them from scratch; the store turns that repetition
// into an O(read) path by persisting each result under a SHA-256 key
// derived from everything that determines it.
//
// Keys are content addresses: a canonical binary encoding of the record
// kind, the engine SchemaVersion, and a caller-supplied sequence of
// named, typed fields (application, budget, seed, ...) is hashed with
// SHA-256. Two requests share an entry exactly when their canonical
// encodings are byte-identical; every setting a caller can vary must be
// in the key, and any truth-affecting engine or program-constant change
// must bump SchemaVersion (see DESIGN.md).
//
// Values are MBRS1 records: the MBCP1 tagged-section framing from
// internal/checkpoint (same size caps, same never-trust-a-declared-
// length decode rules) wrapped with a trailing SHA-256 integrity
// checksum over the entire record. Writes go through a temp file plus
// atomic rename, so concurrent processes sharing one directory never
// observe a torn entry; a torn, truncated, or bit-flipped entry fails
// its checksum on read, is quarantined aside, and reads as a miss — the
// caller recomputes and rewrites it. The store is a cache, never an
// oracle: corruption can cost time, not correctness.
//
// The on-disk footprint is bounded by LRU-by-mtime eviction: reads bump
// an entry's mtime, and writes that push the directory past the
// configured cap delete the stalest entries first.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"membottle/internal/checkpoint"
	"membottle/internal/obs"
)

// Magic identifies a membottle result-store record.
const Magic = "MBRS1\n"

// Version is the current record format version.
const Version = 1

// SchemaVersion is the engine schema the store's contents were computed
// under, folded into every key hash. Bump it whenever any truth-affecting
// engine change lands (cost model, cache policy or geometry, workload
// setup, sampler or search semantics and constants): old entries then
// simply stop matching and are recomputed and evicted over time, instead
// of serving stale results.
const SchemaVersion = 1

// DefaultMaxBytes is the on-disk cap applied when Options.MaxBytes is
// zero: enough for thousands of baseline records while staying polite in
// a user cache directory.
const DefaultMaxBytes = 1 << 30

// recordExt is the filename extension of live entries; quarantined
// entries get badExt appended instead of being trusted or deleted.
const (
	recordExt = ".mbrs"
	badExt    = ".bad"
)

// Record section tags.
const (
	secKey     byte = 1
	secPayload byte = 2
	secEnd     byte = 0xFF
)

// ErrCorrupt reports a record that failed structural or checksum
// validation. Get treats it as a miss; it is exported for the tests and
// the fuzz target.
var ErrCorrupt = errors.New("store: corrupt or truncated record")

// Kind discriminates the record kinds sharing one store directory.
type Kind uint8

const (
	// KindTruth is an exact or representative-interval ground-truth
	// baseline: a truth counter plus the run's overhead statistics.
	KindTruth Kind = 1
	// KindCell is one completed experiment cell result (a table block),
	// encoded by the experiments package.
	KindCell Kind = 2
)

// Key is a content address: the SHA-256 of a canonical encoding of the
// record kind, the engine SchemaVersion, and the caller's named fields.
type Key struct {
	kind Kind
	sum  [sha256.Size]byte
}

// Kind returns the record kind the key addresses.
func (k Key) Kind() Kind { return k.kind }

// Sum returns the key's SHA-256 content address.
func (k Key) Sum() [sha256.Size]byte { return k.sum }

// String renders the key as kind/hex, for diagnostics.
func (k Key) String() string {
	return fmt.Sprintf("%d/%s", k.kind, hex.EncodeToString(k.sum[:]))
}

// KeyBuilder accumulates the named fields of one key in call order. The
// canonical encoding is self-describing — every field carries a type tag
// and its name — so two different field sequences can never collide by
// concatenation ambiguity, only by a genuine SHA-256 collision.
type KeyBuilder struct {
	kind Kind
	e    checkpoint.Enc
}

// Field type tags in the canonical key encoding.
const (
	keyStr  = 1
	keyU64  = 2
	keyI64  = 3
	keyBool = 4
)

// NewKey starts a key of the given kind. The schema header (magic, store
// version, SchemaVersion, kind) is folded in before any field.
func NewKey(kind Kind) *KeyBuilder {
	b := &KeyBuilder{kind: kind}
	b.e.Str(Magic)
	b.e.U64(Version)
	b.e.U64(SchemaVersion)
	b.e.U64(uint64(kind))
	return b
}

// Str adds a named string field.
func (b *KeyBuilder) Str(name, v string) *KeyBuilder {
	b.e.U64(keyStr)
	b.e.Str(name)
	b.e.Str(v)
	return b
}

// U64 adds a named unsigned integer field.
func (b *KeyBuilder) U64(name string, v uint64) *KeyBuilder {
	b.e.U64(keyU64)
	b.e.Str(name)
	b.e.U64(v)
	return b
}

// I64 adds a named signed integer field.
func (b *KeyBuilder) I64(name string, v int64) *KeyBuilder {
	b.e.U64(keyI64)
	b.e.Str(name)
	b.e.I64(v)
	return b
}

// Bool adds a named boolean field.
func (b *KeyBuilder) Bool(name string, v bool) *KeyBuilder {
	b.e.U64(keyBool)
	b.e.Str(name)
	b.e.Bool(v)
	return b
}

// Key finalizes the content address. The builder is spent afterwards.
func (b *KeyBuilder) Key() Key {
	return Key{kind: b.kind, sum: sha256.Sum256(b.e.Take())}
}

// Options configures Open.
type Options struct {
	// MaxBytes caps the directory's total size in bytes; entries past the
	// cap are evicted stalest-mtime-first after each write. 0 selects
	// DefaultMaxBytes; negative disables eviction.
	MaxBytes int64
	// Obs, when non-nil, receives store metrics (store.hits, store.misses,
	// store.bytes_read, store.bytes_written, store.evictions,
	// store.quarantined) and store-* trace events.
	Obs *obs.Obs
}

// Store is one result-store directory. All methods are safe for
// concurrent use by multiple goroutines and — via the atomic-rename
// write protocol — by multiple processes sharing the directory.
type Store struct {
	dir      string
	maxBytes int64
	o        *obs.Obs

	// evictMu serializes this process's eviction sweeps; concurrent
	// sweeps would double-count sizes and double-delete entries.
	evictMu sync.Mutex
}

// DefaultDir returns the per-user default store directory
// (os.UserCacheDir()/membottle/store).
func DefaultDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("store: no user cache directory: %w", err)
	}
	return filepath.Join(base, "membottle", "store"), nil
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string, opt Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	max := opt.MaxBytes
	if max == 0 {
		max = DefaultMaxBytes
	}
	return &Store{dir: dir, maxBytes: max, o: opt.Obs}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path returns the entry path for a key: two-hex-digit fan-out
// directories keep any single directory small.
func (s *Store) path(k Key) string {
	name := hex.EncodeToString(k.sum[:])
	return filepath.Join(s.dir, name[:2], name+recordExt)
}

// Get returns the payload stored under k, or (nil, false) on a miss. A
// missing entry is a plain miss; an unreadable or corrupt entry is
// quarantined (renamed aside with a .bad suffix, preserving the evidence
// without ever trusting it) and also reads as a miss. A hit bumps the
// entry's mtime, making eviction LRU rather than FIFO.
func (s *Store) Get(k Key) ([]byte, bool) {
	path := s.path(k)
	data, err := os.ReadFile(path)
	if err != nil {
		s.miss(k, "")
		return nil, false
	}
	payload, err := decodeRecord(data, k)
	if err != nil {
		s.quarantine(path)
		s.miss(k, "quarantined")
		return nil, false
	}
	now := time.Now()
	_ = os.Chtimes(path, now, now) // best effort: eviction degrades to FIFO
	if s.o != nil {
		s.o.StoreHits.Inc()
		s.o.StoreBytesRead.Add(uint64(len(data)))
		s.o.Emit(obs.Event{Kind: obs.EvStoreHit, A: uint64(len(data))})
	}
	return payload, true
}

// miss records one miss, with an optional note for the trace event.
func (s *Store) miss(k Key, note string) {
	if s.o == nil {
		return
	}
	s.o.StoreMisses.Inc()
	s.o.Emit(obs.Event{Kind: obs.EvStoreMiss, A: uint64(k.kind), Note: note})
}

// quarantine moves a corrupt entry aside. Best effort: if the rename
// fails (another process already moved or replaced it), the entry is
// left for that process to handle.
func (s *Store) quarantine(path string) {
	if err := os.Rename(path, path+badExt); err != nil {
		return
	}
	if s.o != nil {
		s.o.StoreQuarantined.Inc()
	}
}

// Put stores payload under k, replacing any existing entry, then
// enforces the size cap. The write is atomic: a temp file in the final
// directory is fully written, synced by close, and renamed into place,
// so a concurrent reader sees either the old complete entry or the new
// one, never a prefix.
func (s *Store) Put(k Key, payload []byte) error {
	rec := encodeRecord(k, payload)
	path := s.path(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: create %s: %w", filepath.Dir(path), err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "put-*.tmp")
	if err != nil {
		return fmt.Errorf("store: temp file: %w", err)
	}
	_, werr := tmp.Write(rec)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("store: write %s: %w", path, werr)
	}
	if s.o != nil {
		s.o.StoreBytesWritten.Add(uint64(len(rec)))
		s.o.Emit(obs.Event{Kind: obs.EvStoreWrite, A: uint64(len(rec))})
	}
	return s.evict()
}

// Clear removes every entry (live and quarantined), leaving the root in
// place.
func (s *Store) Clear() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: clear %s: %w", s.dir, err)
	}
	for _, e := range entries {
		if err := os.RemoveAll(filepath.Join(s.dir, e.Name())); err != nil {
			return fmt.Errorf("store: clear %s: %w", s.dir, err)
		}
	}
	return nil
}

// entryInfo is one on-disk entry during an eviction sweep.
type entryInfo struct {
	path  string
	size  int64
	mtime time.Time
}

// Size returns the store's current on-disk footprint in bytes.
func (s *Store) Size() (int64, error) {
	entries, err := s.scan()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		total += e.size
	}
	return total, nil
}

// Len returns the number of live entries (diagnostics and tests).
func (s *Store) Len() (int, error) {
	entries, err := s.scan()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range entries {
		if filepath.Ext(e.path) == recordExt {
			n++
		}
	}
	return n, nil
}

// scan lists every entry (live, quarantined, and orphaned temp files)
// with sizes and mtimes, sorted by path for a deterministic walk order.
func (s *Store) scan() ([]entryInfo, error) {
	var out []entryInfo
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			// A concurrently evicted file is not an error.
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		out = append(out, entryInfo{path: path, size: info.Size(), mtime: info.ModTime()})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: scan %s: %w", s.dir, err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out, nil
}

// evict deletes stalest-mtime-first until the directory fits the cap.
// Quarantined entries sort with everything else — they age out the same
// way. Ties break by path so concurrent sweeps in different processes
// converge on the same victims.
func (s *Store) evict() error {
	if s.maxBytes < 0 {
		return nil
	}
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	entries, err := s.scan()
	if err != nil {
		return err
	}
	var total int64
	for _, e := range entries {
		total += e.size
	}
	if total <= s.maxBytes {
		return nil
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mtime.Equal(entries[j].mtime) {
			return entries[i].mtime.Before(entries[j].mtime)
		}
		return entries[i].path < entries[j].path
	})
	for _, e := range entries {
		if total <= s.maxBytes {
			break
		}
		if err := os.Remove(e.path); err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				total -= e.size
				continue
			}
			return fmt.Errorf("store: evict %s: %w", e.path, err)
		}
		total -= e.size
		if s.o != nil {
			s.o.StoreEvictions.Inc()
			s.o.Emit(obs.Event{Kind: obs.EvStoreEvict, A: uint64(e.size)})
		}
	}
	return nil
}

// --- record encoding ------------------------------------------------------

// encodeRecord frames a payload as one MBRS1 record: magic, version, a
// key section (kind, schema, content address), a payload section, an end
// section, and a trailing SHA-256 over everything before it.
func encodeRecord(k Key, payload []byte) []byte {
	var buf bytes.Buffer
	buf.WriteString(Magic)
	var e checkpoint.Enc
	e.U64(Version)
	buf.Write(e.Take())

	e.U64(uint64(k.kind))
	e.U64(SchemaVersion)
	e.Blob(k.sum[:])
	mustSection(&buf, secKey, e.Take())
	mustSection(&buf, secPayload, payload)
	mustSection(&buf, secEnd, nil)

	sum := sha256.Sum256(buf.Bytes())
	buf.Write(sum[:])
	return buf.Bytes()
}

// mustSection writes a section to an in-memory buffer; bytes.Buffer
// writes cannot fail.
func mustSection(buf *bytes.Buffer, tag byte, payload []byte) {
	if err := checkpoint.WriteSection(buf, tag, payload); err != nil {
		panic(err) // unreachable: bytes.Buffer.Write never errors
	}
}

// decodeRecord validates one record end to end — checksum first, then
// structure, then that the embedded key matches the requested one (a
// renamed or cross-linked file must not serve the wrong result) — and
// returns the payload. Every failure maps to ErrCorrupt wrapping detail.
func decodeRecord(data []byte, k Key) ([]byte, error) {
	if len(data) < len(Magic)+1+sha256.Size {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any record", ErrCorrupt, len(data))
	}
	body, tail := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], tail) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if string(body[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	r := bytes.NewReader(body[len(Magic):])
	ver, err := readUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("%w: reading version", ErrCorrupt)
	}
	if ver != Version {
		return nil, fmt.Errorf("%w: record version %d, want %d", ErrCorrupt, ver, Version)
	}

	var payload []byte
	sawKey, sawPayload := false, false
	for {
		tag, err := r.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: missing end section", ErrCorrupt)
		}
		sec, err := checkpoint.ReadSection(r)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		switch tag {
		case secKey:
			if sawKey {
				return nil, fmt.Errorf("%w: duplicate key section", ErrCorrupt)
			}
			sawKey = true
			d := checkpoint.NewDec(sec)
			kind := Kind(d.U64())
			schema := d.U64()
			keySum := d.Blob()
			if d.Err() != nil || d.Remaining() != 0 {
				return nil, fmt.Errorf("%w: malformed key section", ErrCorrupt)
			}
			if kind != k.kind || schema != SchemaVersion || !bytes.Equal(keySum, k.sum[:]) {
				return nil, fmt.Errorf("%w: record key does not match request", ErrCorrupt)
			}
		case secPayload:
			if sawPayload {
				return nil, fmt.Errorf("%w: duplicate payload section", ErrCorrupt)
			}
			sawPayload = true
			payload = sec
		case secEnd:
			if len(sec) != 0 {
				return nil, fmt.Errorf("%w: malformed end section", ErrCorrupt)
			}
			if r.Len() != 0 {
				return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Len())
			}
			if !sawKey || !sawPayload {
				return nil, fmt.Errorf("%w: missing required section", ErrCorrupt)
			}
			return payload, nil
		default:
			return nil, fmt.Errorf("%w: unknown section %d", ErrCorrupt, tag)
		}
	}
}

// readUvarint reads one uvarint from a ByteReader, mapping io errors to
// a plain error for the caller to wrap.
func readUvarint(r io.ByteReader) (uint64, error) {
	var v uint64
	var shift uint
	for {
		b, err := r.ReadByte()
		if err != nil {
			return 0, err
		}
		if shift >= 64 {
			return 0, fmt.Errorf("uvarint overflows 64 bits")
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
	}
}
