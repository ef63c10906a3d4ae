package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"membottle/internal/mem"
)

// refModel is a deliberately naive set-associative LRU cache: maps and
// linear scans, no packed arrays, no clever indexing. It exists purely as
// a trusted oracle for the optimized Cache — if the two ever disagree on a
// single reference's verdict, the optimization is wrong.
type refModel struct {
	lineSize uint64
	sets     []map[uint64]uint64 // per set: line tag -> last-use time
	clock    uint64
	stats    Stats
	assoc    int
}

func newRefModel(cfg Config) *refModel {
	lines := cfg.Size / cfg.LineSize
	sets := lines / cfg.Assoc
	m := &refModel{
		lineSize: uint64(cfg.LineSize),
		sets:     make([]map[uint64]uint64, sets),
		assoc:    cfg.Assoc,
	}
	for i := range m.sets {
		m.sets[i] = make(map[uint64]uint64)
	}
	return m
}

func (m *refModel) access(a mem.Addr, write bool) (miss bool) {
	if write {
		m.stats.Writes++
	} else {
		m.stats.Reads++
	}
	m.clock++
	line := uint64(a) / m.lineSize
	set := m.sets[line%uint64(len(m.sets))]
	if _, ok := set[line]; ok {
		set[line] = m.clock
		m.stats.Hits++
		return false
	}
	m.stats.Misses++
	if len(set) == m.assoc {
		var victim uint64
		oldest := ^uint64(0)
		for tag, used := range set {
			if used < oldest {
				oldest = used
				victim = tag
			}
		}
		delete(set, victim)
	}
	set[line] = m.clock
	return true
}

func (m *refModel) resident() int {
	n := 0
	for _, s := range m.sets {
		n += len(s)
	}
	return n
}

// batchDriver drives a Cache exclusively through AccessBatch, re-issuing
// the miss at each batch boundary through Access — the same protocol the
// machine's batched engine uses — and reports per-reference verdicts.
type batchDriver struct {
	c       *Cache
	pending []mem.Ref
}

func (d *batchDriver) access(a mem.Addr, write bool) {
	d.pending = append(d.pending, mem.Ref{Addr: a, Write: write})
}

// drain processes all pending references, appending one verdict per
// reference (true = miss) to verdicts.
func (d *batchDriver) drain(verdicts []bool) []bool {
	refs := d.pending
	for len(refs) > 0 {
		n, _, missed := d.c.AccessBatch(refs)
		hits := n
		if missed {
			hits--
		}
		for i := 0; i < hits; i++ {
			verdicts = append(verdicts, false)
		}
		if missed {
			verdicts = append(verdicts, true)
		}
		refs = refs[n:]
	}
	d.pending = d.pending[:0]
	return verdicts
}

// genAddr draws addresses from a skewed mixture — a hot cache-resident
// region, a warm region about the cache size, and a cold expanse — so the
// stream exercises hits, capacity evictions, and conflict misses.
func genAddr(rng *rand.Rand) mem.Addr {
	switch rng.Intn(10) {
	case 0, 1, 2, 3, 4, 5: // hot: fits easily
		return mem.Addr(0x1000 + rng.Int63n(16<<10))
	case 6, 7, 8: // warm: roughly the cache size
		return mem.Addr(0x100000 + rng.Int63n(64<<10))
	default: // cold
		return mem.Addr(0x1000000 + rng.Int63n(32<<20))
	}
}

// setOf is the set index of address a, computed with division rather
// than the cache's shift and mask.
func setOf(cfg Config, a mem.Addr) uint64 {
	return uint64(a) / uint64(cfg.LineSize) % uint64(cfg.Size/cfg.LineSize/cfg.Assoc)
}

// newShards builds the shards partitions of cfg.
func newShards(t testing.TB, cfg Config, shards int) []*Cache {
	t.Helper()
	parts := make([]*Cache, shards)
	for s := range parts {
		p, err := NewPartition(cfg, s, shards)
		if err != nil {
			t.Fatal(err)
		}
		parts[s] = p
	}
	return parts
}

// sumStats merges the partitions' statistics.
func sumStats(parts []*Cache) Stats {
	var st Stats
	for _, p := range parts {
		st.Reads += p.Stats.Reads
		st.Writes += p.Stats.Writes
		st.Hits += p.Stats.Hits
		st.Misses += p.Stats.Misses
	}
	return st
}

// checkImage asserts that every set holds the same lines in the same
// ways in its partition as in want, the cache the stream ran through
// with Access. Stamps are not compared: a partition's clock counts only
// its own probes.
func checkImage(t testing.TB, want *Cache, parts []*Cache) {
	t.Helper()
	ws := want.State().Ways
	assoc := want.Config().Assoc
	states := make([][]WayState, len(parts))
	for s, p := range parts {
		states[s] = p.State().Ways
	}
	for i, w := range ws {
		g := states[i/assoc%len(parts)][i]
		if (g.Stamp != 0) != (w.Stamp != 0) || w.Stamp != 0 && g.Tag != w.Tag {
			t.Fatalf("%d shards: way %d holds (tag %#x, stamp %d), Access leaves (tag %#x, stamp %d)",
				len(parts), i, g.Tag, g.Stamp, w.Tag, w.Stamp)
		}
	}
}

// sweepShards routes stream by set mod shards into the partitions and
// replays each shard's subsequence in mem.PackRef form through Sweep,
// chunk references at a time. It returns one verdict per reference
// (true = miss).
func sweepShards(parts []*Cache, cfg Config, chunk int, stream []mem.Ref) []bool {
	shards := uint64(len(parts))
	packed := make([][]uint64, shards)
	index := make([][]int, shards)
	for i, r := range stream {
		s := setOf(cfg, r.Addr) % shards
		packed[s] = append(packed[s], mem.PackRef(r.Addr, r.Write))
		index[s] = append(index[s], i)
	}
	verdicts := make([]bool, len(stream))
	var missIdx []uint32
	for s, p := range parts {
		for lo := 0; lo < len(packed[s]); lo += chunk {
			hi := min(lo+chunk, len(packed[s]))
			missIdx = p.Sweep(packed[s][lo:hi], missIdx[:0])
			for _, j := range missIdx {
				verdicts[index[s][lo+int(j)]] = true
			}
		}
	}
	return verdicts
}

// run is one maximal run of consecutive same-line references in a
// stream, split at mem.MaxRunLen: the run-compacted form one mem.PackRun
// entry carries.
type run struct{ first, n int }

// compactRuns splits stream into its runs.
func compactRuns(cfg Config, stream []mem.Ref) []run {
	var runs []run
	line := func(i int) uint64 { return uint64(stream[i].Addr) / uint64(cfg.LineSize) }
	for i := 0; i < len(stream); {
		n := 1
		for i+n < len(stream) && n < mem.MaxRunLen && line(i+n) == line(i) {
			n++
		}
		runs = append(runs, run{i, n})
		i += n
	}
	return runs
}

// sweepRunShards routes the runs by set mod shards into the partitions
// and replays each shard's entries through SweepRuns, chunk entries at a
// time. It returns one verdict per run (true = its entry missed).
func sweepRunShards(parts []*Cache, cfg Config, chunk int, stream []mem.Ref, runs []run) []bool {
	shards := uint64(len(parts))
	entries := make([][]uint64, shards)
	index := make([][]int, shards)
	for k, r := range runs {
		a := stream[r.first].Addr
		s := setOf(cfg, a) % shards
		entries[s] = append(entries[s], mem.PackRun(a, r.n))
		index[s] = append(index[s], k)
	}
	verdicts := make([]bool, len(runs))
	var missIdx []uint32
	for s, p := range parts {
		for lo := 0; lo < len(entries[s]); lo += chunk {
			hi := min(lo+chunk, len(entries[s]))
			missIdx = p.SweepRuns(entries[s][lo:hi], missIdx[:0])
			for _, j := range missIdx {
				verdicts[index[s][lo+int(j)]] = true
			}
		}
	}
	return verdicts
}

// checkRunVerdicts asserts that each run's entry verdict is its first
// reference's verdict in want and that no later reference of a run
// misses in want, the property that makes run compaction exact.
func checkRunVerdicts(t testing.TB, want []bool, runs []run, got []bool) {
	t.Helper()
	for k, r := range runs {
		if got[k] != want[r.first] {
			t.Fatalf("run at reference %d (length %d): entry miss=%v, reference says miss=%v",
				r.first, r.n, got[k], want[r.first])
		}
		for j := r.first + 1; j < r.first+r.n; j++ {
			if want[j] {
				t.Fatalf("reference %d misses inside the run starting at %d", j, r.first)
			}
		}
	}
}

// genStream draws n references from genAddr. A quarter of the draws
// start a short 8-byte-stride burst, and a rare one repeats one address
// past mem.MaxRunLen, so the stream holds same-line runs of every length
// for the run-compacted sweep, including runs that must split.
func genStream(rng *rand.Rand, n int) []mem.Ref {
	stream := make([]mem.Ref, 0, n)
	for len(stream) < n {
		a, write := genAddr(rng), rng.Intn(3) == 0
		burst, stride := 1, mem.Addr(8)
		switch {
		case rng.Intn(2048) == 0:
			burst, stride = mem.MaxRunLen+1+rng.Intn(64), 0
		case rng.Intn(4) == 0:
			burst = 2 + rng.Intn(15)
		}
		for j := 0; j < burst && len(stream) < n; j++ {
			stream = append(stream, mem.Ref{Addr: a + stride*mem.Addr(j), Write: write})
		}
	}
	return stream
}

// TestDifferentialScalarBatchedReference drives 1M+ seeded random accesses
// through the scalar cache, the batched cache, and the naive reference
// model, asserting identical per-reference hit/miss verdicts and identical
// final statistics, on 1-, 2-, 4- and 8-way geometries. The same stream
// also runs through the offline sweeps the sharded and interval engines
// use: routed by set mod shards into 1, 2 and 4 partitions, once per
// reference through Sweep and once run-compacted through SweepRuns,
// with per-reference (per-entry for runs) verdicts and merged Hits and
// Misses equal to the scalar cache's.
func TestDifferentialScalarBatchedReference(t *testing.T) {
	const accesses = 1_200_000
	for _, assoc := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("%d-way", assoc), func(t *testing.T) {
			differential(t, Config{Size: 64 << 10, LineSize: 64, Assoc: assoc}, accesses)
		})
	}
}

func differential(t *testing.T, cfg Config, accesses int) {
	rng := rand.New(rand.NewSource(20260806))
	scalar := New(cfg)
	batched := New(cfg)
	model := newRefModel(cfg)
	driver := &batchDriver{c: batched}
	stream := genStream(rng, accesses)

	scalarVerdicts := make([]bool, 0, accesses)
	modelVerdicts := make([]bool, 0, accesses)
	batchedVerdicts := make([]bool, 0, accesses)

	for _, r := range stream {
		scalarVerdicts = append(scalarVerdicts, scalar.Access(r.Addr, r.Write))
		modelVerdicts = append(modelVerdicts, model.access(r.Addr, r.Write))
		driver.access(r.Addr, r.Write)
		// Flush the batch at random points so boundaries land everywhere.
		if rng.Intn(512) == 0 {
			batchedVerdicts = driver.drain(batchedVerdicts)
		}
	}
	batchedVerdicts = driver.drain(batchedVerdicts)

	if len(scalarVerdicts) != accesses || len(modelVerdicts) != accesses || len(batchedVerdicts) != accesses {
		t.Fatalf("verdict counts: scalar=%d model=%d batched=%d, want %d",
			len(scalarVerdicts), len(modelVerdicts), len(batchedVerdicts), accesses)
	}
	for i := 0; i < accesses; i++ {
		if scalarVerdicts[i] != modelVerdicts[i] {
			t.Fatalf("access %d: scalar cache says miss=%v, reference model says miss=%v",
				i, scalarVerdicts[i], modelVerdicts[i])
		}
		if scalarVerdicts[i] != batchedVerdicts[i] {
			t.Fatalf("access %d: scalar says miss=%v, batched says miss=%v",
				i, scalarVerdicts[i], batchedVerdicts[i])
		}
	}

	if scalar.Stats != model.stats {
		t.Fatalf("stats diverge: scalar=%+v model=%+v", scalar.Stats, model.stats)
	}
	if scalar.Stats != batched.Stats {
		t.Fatalf("stats diverge: scalar=%+v batched=%+v", scalar.Stats, batched.Stats)
	}
	if scalar.Resident() != model.resident() || scalar.Resident() != batched.Resident() {
		t.Fatalf("resident lines diverge: scalar=%d model=%d batched=%d",
			scalar.Resident(), model.resident(), batched.Resident())
	}
	// Residency must agree line-by-line, not just in count.
	probe := rand.New(rand.NewSource(1))
	for i := 0; i < 50_000; i++ {
		a := genAddr(probe)
		if scalar.Probe(a) != batched.Probe(a) {
			t.Fatalf("probe %#x: scalar resident=%v batched resident=%v",
				uint64(a), scalar.Probe(a), batched.Probe(a))
		}
	}
	if scalar.Stats.Misses == 0 || scalar.Stats.Hits == 0 {
		t.Fatal("degenerate stream: need both hits and misses for a meaningful differential")
	}

	runs := compactRuns(cfg, stream)
	if len(runs) == len(stream) {
		t.Fatal("degenerate stream: no same-line runs for the run-compacted sweep")
	}
	for _, shards := range []int{1, 2, 4} {
		parts := newShards(t, cfg, shards)
		swept := sweepShards(parts, cfg, 4096, stream)
		for i := range swept {
			if swept[i] != scalarVerdicts[i] {
				t.Fatalf("%d shards: access %d: scalar says miss=%v, Sweep says miss=%v",
					shards, i, scalarVerdicts[i], swept[i])
			}
		}
		if st := sumStats(parts); st != scalar.Stats {
			t.Fatalf("%d shards: Sweep stats %+v, scalar %+v", shards, st, scalar.Stats)
		}
		checkImage(t, scalar, parts)
		if shards == 1 && !reflect.DeepEqual(parts[0].State(), scalar.State()) {
			t.Fatal("1 shard: Sweep leaves a different cache image than Access")
		}
		for i := 0; i < 50_000; i++ {
			a := genAddr(probe)
			if p := parts[setOf(cfg, a)%uint64(shards)]; p.Probe(a) != scalar.Probe(a) {
				t.Fatalf("%d shards: probe %#x: scalar resident=%v partition resident=%v",
					shards, uint64(a), scalar.Probe(a), p.Probe(a))
			}
		}

		parts = newShards(t, cfg, shards)
		checkRunVerdicts(t, scalarVerdicts, runs, sweepRunShards(parts, cfg, 4096, stream, runs))
		checkImage(t, scalar, parts)
		st := sumStats(parts)
		if st.Hits != scalar.Stats.Hits || st.Misses != scalar.Stats.Misses || st.Reads != scalar.Stats.Accesses() {
			t.Fatalf("%d shards: SweepRuns stats %+v, scalar %+v", shards, st, scalar.Stats)
		}
	}
}

// TestAccessBatchComputeSum checks the Compute payload accounting the
// machine relies on.
func TestAccessBatchComputeSum(t *testing.T) {
	c := New(Config{Size: 4096, LineSize: 64, Assoc: 2})
	// Warm two lines so the batch hits.
	c.Access(0x0, false)
	c.Access(0x1000, false)
	refs := []mem.Ref{
		{Addr: 0x8, Compute: 7},
		{Addr: 0x1008, Write: true, Compute: 5},
		{Addr: 0x10, Compute: 3},
		{Addr: 0x2000, Compute: 100}, // miss: payload excluded from the sum
	}
	n, compute, missed := c.AccessBatch(refs)
	if n != 4 || compute != 15 || !missed {
		t.Fatalf("AccessBatch = (%d, %d, %v), want (4, 15, true)", n, compute, missed)
	}
}

// TestAccessPairRunMatchesAccess checks AccessPairRun against 2k
// per-reference calls: when it credits k pairs, the reference model must
// hit on all 2k references and agree on the statistics, and a twin cache
// driven through Access must hold the same snapshot, stamps included. When
// it declines, the cache must be untouched and one of the pair's lines
// absent; the pair then runs through Access on all three. Pairs fall on
// one line, on distinct sets, and on one set, across 1-, 2-, 4- and 8-way
// geometries, with a cold line sometimes thrown in between pairs.
func TestAccessPairRunMatchesAccess(t *testing.T) {
	for _, assoc := range []int{1, 2, 4, 8} {
		cfg := Config{Size: 4 << 10, LineSize: 64, Assoc: assoc}
		setSpan := uint64(cfg.Size / assoc)
		rng := rand.New(rand.NewSource(int64(assoc)))
		pair, twin, model := New(cfg), New(cfg), newRefModel(cfg)
		credited, declined := 0, 0
		for op := 0; op < 20_000; op++ {
			a := mem.Addr(rng.Uint64()%24*uint64(cfg.LineSize) + rng.Uint64()%uint64(cfg.LineSize))
			var b mem.Addr
			switch rng.Intn(3) {
			case 0: // a's line
				b = a&^mem.Addr(cfg.LineSize-1) + mem.Addr(rng.Uint64()%uint64(cfg.LineSize))
			case 1: // a's set, another line
				b = a + mem.Addr(setSpan*(1+rng.Uint64()%2))
			default: // anywhere in the pool
				b = mem.Addr(rng.Uint64() % (24 * uint64(cfg.LineSize)))
			}
			if rng.Intn(4) == 0 {
				cold := mem.Addr(1<<20 + rng.Uint64()%(64*uint64(cfg.LineSize)))
				pair.Access(cold, false)
				twin.Access(cold, false)
				model.access(cold, false)
			}
			k := 1 + rng.Uint64()%64
			write := rng.Intn(2) == 0
			before := pair.State()
			if pair.AccessPairRun(a, b, k, write) {
				credited++
				for i := uint64(0); i < k; i++ {
					ra, rb := model.access(a, write), model.access(b, write)
					twin.Access(a, write)
					twin.Access(b, write)
					if ra || rb {
						t.Fatalf("assoc %d op %d: AccessPairRun credited (%#x,%#x) x%d but the model misses", assoc, op, a, b, k)
					}
				}
			} else {
				declined++
				if !reflect.DeepEqual(pair.State(), before) {
					t.Fatalf("assoc %d op %d: a declined AccessPairRun changed the cache", assoc, op)
				}
				if twin.Probe(a) && twin.Probe(b) {
					t.Fatalf("assoc %d op %d: AccessPairRun declined with both lines resident", assoc, op)
				}
				for _, c := range []*Cache{pair, twin} {
					c.Access(a, write)
					c.Access(b, write)
				}
				model.access(a, write)
				model.access(b, write)
			}
			if pair.Stats != model.stats || pair.Stats != twin.Stats {
				t.Fatalf("assoc %d op %d: stats %+v, model %+v, Access %+v", assoc, op, pair.Stats, model.stats, twin.Stats)
			}
			if !reflect.DeepEqual(pair.State(), twin.State()) {
				t.Fatalf("assoc %d op %d: snapshot differs from Access's", assoc, op)
			}
		}
		if credited == 0 || declined == 0 {
			t.Fatalf("assoc %d: %d credited, %d declined; the stream must exercise both", assoc, credited, declined)
		}
	}

	// Declines that must leave the cache untouched: one line absent, and
	// two lines of one set in a direct-mapped cache, which can never both
	// be resident (touching a after b evicts b).
	for _, tc := range []struct {
		name  string
		assoc int
		b     mem.Addr
	}{
		{"absent line", 4, 0x2040},
		{"direct-mapped set pair", 1, 0x1000 + 4<<10},
	} {
		c := New(Config{Size: 4 << 10, LineSize: 64, Assoc: tc.assoc})
		if tc.assoc == 1 {
			c.Access(tc.b, true)
		}
		c.Access(0x1000, true)
		before := c.State()
		if c.AccessPairRun(0x1008, tc.b+8, 3, true) {
			t.Fatalf("%s: AccessPairRun credited a pair with a line absent", tc.name)
		}
		if !reflect.DeepEqual(c.State(), before) {
			t.Fatalf("%s: a declined AccessPairRun changed the cache", tc.name)
		}
	}
}
