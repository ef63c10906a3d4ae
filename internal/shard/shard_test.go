package shard_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"membottle"
	"membottle/internal/cache"
	"membottle/internal/capture"
	"membottle/internal/machine"
	"membottle/internal/mem"
	"membottle/internal/obs"
	"membottle/internal/shard"
	"membottle/internal/truth"
	"membottle/internal/workload"
)

// renderTruth flattens everything the acceptance contract covers into one
// comparable string: the ranked per-object table (names, miss counts,
// shares), the totals, and the merged cache statistics.
func renderTruth(t *testing.T, tc *truth.Counter, st cache.Stats, cycles, insts, appInsts uint64) string {
	t.Helper()
	var b strings.Builder
	for _, r := range tc.Ranked() {
		fmt.Fprintf(&b, "%s %d %.6f\n", r.Object.Name, r.Misses, r.Pct)
	}
	fmt.Fprintf(&b, "total=%d unmatched=%d\n", tc.Total, tc.Unmatched)
	fmt.Fprintf(&b, "stats=%+v\n", st)
	fmt.Fprintf(&b, "cycles=%d insts=%d appinsts=%d\n", cycles, insts, appInsts)
	return b.String()
}

// sequentialTruth runs the app on the sequential engine and renders it.
func sequentialTruth(t *testing.T, app string, budget uint64) (string, *membottle.System) {
	t.Helper()
	sys := membottle.NewSystem(membottle.DefaultConfig())
	if err := sys.LoadWorkloadByName(app); err != nil {
		t.Fatal(err)
	}
	sys.Run(budget)
	m := sys.Machine
	return renderTruth(t, sys.Truth, m.Cache.Stats, m.Cycles, m.Insts, m.AppInsts), sys
}

// shardedTruth runs the app on the captured engine and renders it.
func shardedTruth(t *testing.T, app string, budget uint64) (string, *shard.Result) {
	t.Helper()
	w, err := workload.New(app)
	if err != nil {
		t.Fatal(err)
	}
	res, err := shard.Run(nil, w, budget, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return renderTruth(t, res.Truth, res.Stats, res.Cycles, res.Insts, res.AppInsts), res
}

// TestShardedMatchesSequential is the engine's core contract: its output
// is byte-identical to the sequential engine — ranked tables, totals,
// cache statistics, and the reconstructed machine counters.
func TestShardedMatchesSequential(t *testing.T) {
	apps := []string{"mgrid", "figure2", "compress"}
	if !testing.Short() {
		apps = append(apps, "tomcatv", "swim", "su2cor", "applu", "ijpeg")
	}
	const budget = 4_000_000
	for _, app := range apps {
		t.Run(app, func(t *testing.T) {
			want, _ := sequentialTruth(t, app, budget)
			if got, _ := shardedTruth(t, app, budget); got != want {
				t.Errorf("captured truth diverges from sequential\nsequential:\n%s\ncaptured:\n%s", want, got)
			}
		})
	}
}

// allocStep allocates on every step, mutating the object map mid-run.
type allocStep struct{ blocks []mem.Addr }

func (a *allocStep) Name() string { return "alloc-step" }
func (a *allocStep) Setup(m *machine.Machine) {
	m.Space.MustDefineGlobal("G", 4096)
}
func (a *allocStep) Step(m *machine.Machine) {
	a.blocks = append(a.blocks, m.MustMalloc(256))
	base, _ := m.Space.SymbolByName("G")
	m.LoadRange(base.Base, 4096, 64, 1)
}

// setupRefs touches memory during Setup, before globals are synced.
type setupRefs struct{ base mem.Addr }

func (s *setupRefs) Name() string { return "setup-refs" }
func (s *setupRefs) Setup(m *machine.Machine) {
	s.base = m.Space.MustDefineGlobal("G", 4096)
	m.Load(s.base)
}
func (s *setupRefs) Step(m *machine.Machine) { m.LoadRange(s.base, 4096, 64, 1) }

// TestShardedFallback verifies both static-precondition guards demote to
// the sequential engine via ErrFallback rather than producing wrong
// attribution against a stale object-map snapshot.
func TestShardedFallback(t *testing.T) {
	if _, err := shard.Run(nil, &allocStep{}, 100_000, shard.Config{}); !errors.Is(err, capture.ErrFallback) || !strings.Contains(err.Error(), "sequential") {
		t.Errorf("mid-run allocation: want ErrFallback, got %v", err)
	}
	if _, err := shard.Run(nil, &setupRefs{}, 100_000, shard.Config{}); !errors.Is(err, capture.ErrFallback) || !strings.Contains(err.Error(), "sequential") {
		t.Errorf("setup references: want ErrFallback, got %v", err)
	}
}

// TestShardedObs checks the instruments a captured run records against
// the run they describe: one run served, and the end-of-run cache totals
// equal to the result's statistics.
func TestShardedObs(t *testing.T) {
	w, err := workload.New("mgrid")
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(obs.Options{NoTrace: true})
	res, err := shard.Run(nil, w, 2_000_000, shard.Config{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	r := o.Registry
	if n := r.Counter("shard.runs").Value(); n != 1 {
		t.Errorf("shard.runs = %d, want 1", n)
	}
	if refs := r.Counter("cache.refs").Value(); refs == 0 || refs != res.Stats.Accesses() {
		t.Errorf("cache.refs = %d, run made %d references", refs, res.Stats.Accesses())
	}
	if misses := r.Counter("cache.misses").Value(); misses == 0 || misses != res.Stats.Misses {
		t.Errorf("cache.misses = %d, run missed %d times", misses, res.Stats.Misses)
	}
}

// fuzzWork is a deterministic pseudo-random workload over a handful of
// globals: a xorshift stream picks the object, offset, direction, and
// trailing compute of every reference. With runs set, every step also
// issues run-shaped traffic: a scalar same-line loop longer than
// mem.MaxRunLen, which saturates and splits runs, and small-stride
// ranges, whose runs straddle capture deliveries.
type fuzzWork struct {
	seed  uint64
	runs  bool
	state uint64
	objs  []mem.Addr
	sizes []uint64
}

func (f *fuzzWork) Name() string { return "fuzz" }
func (f *fuzzWork) Setup(m *machine.Machine) {
	f.state = f.seed | 1
	f.objs = f.objs[:0]
	f.sizes = f.sizes[:0]
	for i, sz := range []uint64{64, 4 << 10, 64 << 10, 1 << 20} {
		f.objs = append(f.objs, m.Space.MustDefineGlobal(fmt.Sprintf("g%d", i), sz))
		f.sizes = append(f.sizes, sz)
	}
}
func (f *fuzzWork) next() uint64 {
	x := f.state
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	f.state = x
	return x
}
func (f *fuzzWork) Step(m *machine.Machine) {
	var refs [256]machine.Ref
	for i := range refs {
		r := f.next()
		o := int(r % uint64(len(f.objs)))
		off := (r >> 8) % f.sizes[o]
		refs[i] = machine.Ref{
			Addr:    f.objs[o] + mem.Addr(off),
			Write:   r&(1<<40) != 0,
			Compute: (r >> 50) & 7,
		}
	}
	m.AccessBatch(refs[:])
	if !f.runs {
		return
	}

	// A 16-byte-aligned block lies within one line for every fuzzed line
	// size, so this loop is one run of more than MaxRunLen references.
	r := f.next()
	o := int(r % uint64(len(f.objs)))
	a := (f.objs[o] + mem.Addr((r>>8)%f.sizes[o])) &^ 15
	for i := 0; i < mem.MaxRunLen+1+int(r>>40)%300; i++ {
		if i%5 == 4 {
			m.Store(a + mem.Addr(i%16))
		} else {
			m.Load(a + mem.Addr(i%16))
		}
	}

	r = f.next()
	o = int(r % uint64(len(f.objs)))
	stride := 1 + (r>>8)%8
	bytes := 1 + (r>>16)%f.sizes[o]
	if bytes > 8<<10 {
		bytes = 8 << 10
	}
	base := f.objs[o] + mem.Addr((r>>32)%(f.sizes[o]-bytes+1))
	if r&(1<<60) != 0 {
		m.StoreRange(base, bytes, stride, (r>>61)&1)
	} else {
		m.LoadRange(base, bytes, stride, (r>>61)&1)
	}
}

// FuzzShardEquivalence cross-checks the captured engine against the
// sequential machine over random reference streams and cache geometries.
func FuzzShardEquivalence(f *testing.F) {
	f.Add(uint64(1), uint(16), uint(6), uint(2), uint64(200_000), false)
	f.Add(uint64(42), uint(14), uint(5), uint(0), uint64(100_000), false)
	f.Add(uint64(7), uint(12), uint(6), uint(3), uint64(50_000), false)
	f.Add(uint64(3), uint(16), uint(6), uint(2), uint64(290_000), true)
	f.Add(uint64(99), uint(11), uint(4), uint(1), uint64(250_000), true)
	f.Add(uint64(5), uint(20), uint(7), uint(3), uint64(120_000), true)
	f.Fuzz(func(t *testing.T, seed uint64, sizeLog, lineLog, assocLog uint, budget uint64, runs bool) {
		sizeLog = 10 + sizeLog%11 // 1 KiB .. 1 MiB
		lineLog = 4 + lineLog%4   // 16 .. 128 B lines
		assocLog = assocLog % 4   // 1 .. 8 ways
		if lineLog >= sizeLog {
			lineLog = sizeLog - 1
		}
		cfg := cache.Config{Size: 1 << sizeLog, LineSize: 1 << lineLog, Assoc: 1 << assocLog}
		if cfg.Validate() != nil {
			return
		}
		budget = 10_000 + budget%300_000
		want := sequentialWork(t, &fuzzWork{seed: seed, runs: runs}, cfg, budget)
		if got := capturedWork(t, &fuzzWork{seed: seed, runs: runs}, cfg, budget); got != want {
			t.Errorf("seed=%d cfg=%+v budget=%d runs=%v:\nsequential:\n%s\ncaptured:\n%s",
				seed, cfg, budget, runs, want, got)
		}
	})
}

// sequentialWork runs w on the sequential engine, built from the same
// parts as membottle.NewSystem, and renders it.
func sequentialWork(t *testing.T, w machine.Workload, cfg cache.Config, budget uint64) string {
	t.Helper()
	sys := membottle.NewSystem(membottle.Config{Cache: cfg})
	sys.LoadWorkload(w)
	sys.Run(budget)
	m := sys.Machine
	return renderTruth(t, sys.Truth, m.Cache.Stats, m.Cycles, m.Insts, m.AppInsts)
}

// capturedWork runs w on the captured engine and renders it.
func capturedWork(t *testing.T, w machine.Workload, cfg cache.Config, budget uint64) string {
	t.Helper()
	res, err := shard.Run(nil, w, budget, shard.Config{Cache: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return renderTruth(t, res.Truth, res.Stats, res.Cycles, res.Insts, res.AppInsts)
}

// runBufEntries is the machine's run-buffer size: the capture delivers
// at most this many run entries at a time.
const runBufEntries = 1 << 12

// attrWork issues hand-built miss patterns, one line per reference, that
// exercise the engine's attribution by runs of misses. Every step
// evicts everything the previous one touched from the test's small
// cache, so each step misses the same way.
type attrWork struct {
	pair, end, gap, straddle bool

	rx, ry, a, c, d, big mem.Addr
}

const (
	attrLine  = 64
	pairBytes = 16 << 10
	endBytes  = 8 << 10
	cBytes    = 1000 // not a multiple of mem.GlobalAlign: a gap follows C
	bigBytes  = 2 * runBufEntries * attrLine
)

func (w *attrWork) Name() string { return "attr" }
func (w *attrWork) Setup(m *machine.Machine) {
	w.rx = m.Space.MustDefineGlobal("RX", pairBytes)
	w.ry = m.Space.MustDefineGlobal("RY", pairBytes)
	w.a = m.Space.MustDefineGlobal("A", endBytes)
	m.Space.MustDefineGlobal("B", endBytes) // starts where A ends
	w.c = m.Space.MustDefineGlobal("C", cBytes)
	w.d = m.Space.MustDefineGlobal("D", 4<<10)
	w.big = m.Space.MustDefineGlobal("BIG", bigBytes)
}
func (w *attrWork) Step(m *machine.Machine) {
	if w.pair {
		// tomcatv's RX/RY shape: the misses alternate objects every line.
		var refs [2 * pairBytes / attrLine]machine.Ref
		for i := 0; i < len(refs); i += 2 {
			off := mem.Addr(i / 2 * attrLine)
			refs[i] = machine.Ref{Addr: w.rx + off}
			refs[i+1] = machine.Ref{Addr: w.ry + off, Write: true}
		}
		m.AccessBatch(refs[:])
	}
	if w.end {
		// One range from the middle of A into B: the run of A's misses
		// ends mid-buffer and B's begins.
		m.LoadRange(w.a+endBytes/2, endBytes, attrLine, 0)
	}
	if w.gap {
		// A matched miss, an unmatched one in the padding after C (its
		// line holds C's last bytes, but the reference lies past C's
		// end), then C again.
		m.Load(w.c)
		m.Load(w.c + cBytes + 8)
		m.Load(w.c + attrLine)
		m.LoadRange(w.d, 4<<10, attrLine, 0) // evicts C's lines
	}
	if w.straddle {
		// Twice the run buffer of consecutive misses in one object: the
		// run of misses crosses at least one delivery boundary.
		m.StoreRange(w.big, bigBytes, attrLine, 1)
	}
}

// TestRunAttribution compares the captured engine with the sequential
// one on each hand-built miss pattern alone and on all of them in one
// step: Truth, Total, Unmatched and Stats must agree byte for byte.
func TestRunAttribution(t *testing.T) {
	cfg := cache.Config{Size: 4 << 10, LineSize: attrLine, Assoc: 4}
	const budget = 200_000
	for _, tc := range []struct {
		name string
		w    attrWork
	}{
		{"alternating-pair", attrWork{pair: true}},
		{"object-end", attrWork{end: true}},
		{"unmatched-gap", attrWork{gap: true}},
		{"delivery-straddle", attrWork{straddle: true}},
		{"all", attrWork{pair: true, end: true, gap: true, straddle: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq, capt := tc.w, tc.w
			want := sequentialWork(t, &seq, cfg, budget)
			if got := capturedWork(t, &capt, cfg, budget); got != want {
				t.Errorf("captured truth diverges from sequential\nsequential:\n%s\ncaptured:\n%s", want, got)
			}
			if unmatched := !strings.Contains(want, "unmatched=0\n"); unmatched != tc.w.gap {
				t.Errorf("unmatched misses: %v, want %v:\n%s", unmatched, tc.w.gap, want)
			}
		})
	}
}
