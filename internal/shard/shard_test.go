package shard_test

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
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

// shardedTruth runs the app on the sharded engine and renders it.
func shardedTruth(t *testing.T, app string, budget uint64, workers int) (string, *shard.Result) {
	t.Helper()
	w, err := workload.New(app)
	if err != nil {
		t.Fatal(err)
	}
	res, err := shard.Run(nil, w, budget, shard.Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return renderTruth(t, res.Truth, res.Stats, res.Cycles, res.Insts, res.AppInsts), res
}

// TestShardedMatchesSequential is the engine's core contract: for every
// tested worker count the merged output is byte-identical to the
// sequential engine — ranked tables, totals, cache statistics, and the
// reconstructed machine counters.
func TestShardedMatchesSequential(t *testing.T) {
	apps := []string{"mgrid", "figure2", "compress"}
	if !testing.Short() {
		apps = append(apps, "tomcatv", "swim", "su2cor", "applu", "ijpeg")
	}
	const budget = 4_000_000
	for _, app := range apps {
		t.Run(app, func(t *testing.T) {
			want, _ := sequentialTruth(t, app, budget)
			for _, workers := range []int{1, 2, 4, 7} {
				got, res := shardedTruth(t, app, budget, workers)
				if got != want {
					t.Errorf("workers=%d (shards=%d): sharded truth diverges from sequential\nsequential:\n%s\nsharded:\n%s",
						workers, res.Shards, want, got)
				}
			}
		})
	}
}

// TestShardedSingleProc pins GOMAXPROCS to 1 and re-checks equivalence
// with multiple shards: correctness must not depend on real parallelism.
func TestShardedSingleProc(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	const app, budget = "mgrid", 2_000_000
	want, _ := sequentialTruth(t, app, budget)
	got, _ := shardedTruth(t, app, budget, 4)
	if got != want {
		t.Errorf("GOMAXPROCS=1: sharded truth diverges\nsequential:\n%s\nsharded:\n%s", want, got)
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
	if _, err := shard.Run(nil, &allocStep{}, 100_000, shard.Config{Workers: 2}); !errors.Is(err, capture.ErrFallback) || !strings.Contains(err.Error(), "sequential") {
		t.Errorf("mid-run allocation: want ErrFallback, got %v", err)
	}
	if _, err := shard.Run(nil, &setupRefs{}, 100_000, shard.Config{Workers: 2}); !errors.Is(err, capture.ErrFallback) || !strings.Contains(err.Error(), "sequential") {
		t.Errorf("setup references: want ErrFallback, got %v", err)
	}
}

// TestShardedObs checks the shard instruments against the run they
// describe: the per-worker reference histogram counts references, not run
// entries, so its sum is the run's cache.refs.
func TestShardedObs(t *testing.T) {
	w, err := workload.New("mgrid")
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(obs.Options{NoTrace: true})
	res, err := shard.Run(nil, w, 2_000_000, shard.Config{Workers: 4, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	refs := o.Registry.Counter("cache.refs").Value()
	if refs == 0 || refs != res.Stats.Accesses() {
		t.Fatalf("cache.refs = %d, run made %d references", refs, res.Stats.Accesses())
	}
	if sum := o.ShardWorkerRefs.Sum(); sum != refs {
		t.Errorf("shard.worker_refs sums to %d, cache.refs is %d", sum, refs)
	}
	if n := o.ShardWorkerRefs.Count(); n != uint64(res.Shards) {
		t.Errorf("shard.worker_refs has %d observations, want one per shard (%d)", n, res.Shards)
	}
}

// fuzzWork is a deterministic pseudo-random workload over a handful of
// globals: a xorshift stream picks the object, offset, direction, and
// trailing compute of every reference. With runs set, every step also
// issues run-shaped traffic: a scalar same-line loop longer than
// mem.MaxRunLen, which saturates and splits runs, and small-stride
// ranges, whose runs straddle capture deliveries and shard chunks.
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

// FuzzShardEquivalence cross-checks the sharded engine against the
// sequential machine over random reference streams, cache geometries,
// and worker counts.
func FuzzShardEquivalence(f *testing.F) {
	f.Add(uint64(1), uint(16), uint(6), uint(2), 4, uint64(200_000), false)
	f.Add(uint64(42), uint(14), uint(5), uint(0), 1, uint64(100_000), false)
	f.Add(uint64(7), uint(12), uint(6), uint(3), 16, uint64(50_000), false)
	f.Add(uint64(3), uint(16), uint(6), uint(2), 4, uint64(290_000), true)
	f.Add(uint64(99), uint(11), uint(4), uint(1), 1, uint64(250_000), true)
	f.Add(uint64(5), uint(20), uint(7), uint(3), 7, uint64(120_000), true)
	f.Fuzz(func(t *testing.T, seed uint64, sizeLog, lineLog, assocLog uint, workers int, budget uint64, runs bool) {
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
		workers = 1 + abs(workers)%8
		budget = 10_000 + budget%300_000

		// Sequential oracle, built from the same parts as membottle.NewSystem.
		seqW := &fuzzWork{seed: seed, runs: runs}
		seqSys := membottle.NewSystem(membottle.Config{Cache: cfg})
		seqSys.LoadWorkload(seqW)
		seqSys.Run(budget)
		m := seqSys.Machine
		want := renderTruth(t, seqSys.Truth, m.Cache.Stats, m.Cycles, m.Insts, m.AppInsts)

		res, err := shard.Run(nil, &fuzzWork{seed: seed, runs: runs}, budget, shard.Config{Cache: cfg, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := renderTruth(t, res.Truth, res.Stats, res.Cycles, res.Insts, res.AppInsts)
		if got != want {
			t.Errorf("seed=%d cfg=%+v workers=%d budget=%d runs=%v:\nsequential:\n%s\nsharded:\n%s",
				seed, cfg, workers, budget, runs, want, got)
		}
		if res.Shards&(res.Shards-1) != 0 || bits.OnesCount(uint(res.Shards)) != 1 {
			t.Errorf("shard count %d not a power of two", res.Shards)
		}
	})
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
