package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/bits"
	"os"
	"reflect"
	"sort"
	"time"

	"membottle"
	"membottle/internal/cache"
	"membottle/internal/core"
	"membottle/internal/experiments"
	"membottle/internal/interval"
	"membottle/internal/machine"
	"membottle/internal/mem"
	"membottle/internal/pmu"
	"membottle/internal/shard"
	"membottle/internal/store"
)

// The traced run times calls into each module's public functions from
// outside the program. It captures the representative app's stream and
// stacks one layer at a time over that same stream; a layer's self time
// is the difference between successive stacks:
//
//	gen      capture run, references counted and dropped      workload.gen_s
//	cache    capture run, references replayed through the     cache.access_batch_s
//	         cache's AccessBatch
//	plain    uninstrumented run without ground truth          machine.dispatch_s
//	truth    uninstrumented run with ground truth             truth.attr_s
//	nulltmr  truth + null timer profiler                      machine.timer_armed_s
//	search   truth + n-way search                             core.search_s
//	nullmiss truth + null miss profiler                       machine.irq_s
//	sampler  truth + sampling                                 core.sampler_s
//
// A Table 1 cell is a sharded plain run, a sampling run and a search run,
// so its layer sum is shard.run_s plus both instrumented stacks. The
// interval report's is shard.run_s plus interval.run_s, and a store
// pass's is its reads times the median read latency plus its writes times
// the median Put latency. Each is checked against the same top operation
// timed untraced.

// sumTolerance is how far the layer sum may stray from the untraced top
// operation's time, as a share of it, before the run fails.
const sumTolerance = 0.25

// noiseShare and noiseFloor bound how negative a self time may read, as a
// share of the upper stack's time plus a floor in seconds, on top of the
// spread the rounds measured (both stacks' interquartile ranges), before
// the run fails: a layer that costs nothing reads as a small difference
// of two noisy timings.
const (
	noiseShare = 0.25
	noiseFloor = 0.002
)

// cheapReps is how many times a round runs the capture probes and the
// stacks that arm no timer, interleaved. Those cost a tenth of the
// timer-armed stacks, and the self times between them are small
// (truth.attr_s is near zero on mgrid), so they need more samples than
// the rounds alone give to read above the noise.
const cheapReps = 3

// renderReps renders the report this many times per round so its time
// is well above the clock's resolution.
const renderReps = 200

type tracer struct {
	w    workload
	seed int64
	opt  experiments.Options

	cellOracle   experiments.AppResult
	reportOracle experiments.IntervalResult
	cell         experiments.AppResult
	report       experiments.IntervalResult
	sampleEvery  uint64

	misses []mem.Addr // the plain run's miss addresses, in order
	lo, hi mem.Addr   // the app's address-space extent
	shards [][]uint64 // per-shard packed stream, reused across rounds
	runs   []uint64   // run-compacted stream, captured once
	idx    []uint32   // miss-index buffer for the sweeps

	st *storeMix
	// uncapped shares nothing with st: with eviction off, Put never scans,
	// so its latency is the write alone and put minus write is the scan.
	uncapped *store.Store

	s         map[string][]float64 // per-round samples by probe
	counts    map[string]float64   // counts that repeat exactly across rounds
	attempted int
	failed    int
}

func runTraced(w workload, seed int64, d time.Duration, scratch string) (result, error) {
	t, err := newTracer(w, seed, scratch)
	if err != nil {
		return result{}, err
	}
	defer t.close()
	start := time.Now()
	for rounds := 0; rounds == 0 || time.Since(start) < d; rounds++ {
		if err := t.round(); err != nil {
			return result{}, err
		}
	}
	return t.result(), nil
}

func newTracer(w workload, seed int64, scratch string) (*tracer, error) {
	t := &tracer{
		w:      w,
		seed:   seed,
		opt:    w.options(seed),
		s:      map[string][]float64{},
		counts: map[string]float64{},
	}
	var err error
	exact := oracleOptions(t.opt)
	if t.cellOracle, err = experiments.Table1App(w.rep, exact); err != nil {
		return nil, err
	}
	if t.reportOracle, err = experiments.IntervalErrorsApp(w.rep, exact); err != nil {
		return nil, err
	}
	t.sampleEvery = t.cellOracle.SampleInterval

	sys, err := newSystem(w.rep, false)
	if err != nil {
		return nil, err
	}
	t.lo, t.hi = sys.Machine.Space.Extent()
	cs := &cacheSink{c: cache.New(sys.Machine.Cache.Config()), collect: true}
	sys.Machine.SetCapture(cs)
	if err := sys.RunContext(context.Background(), w.budget); err != nil {
		return nil, err
	}
	sys.Machine.FlushCapture()
	t.misses = cs.misses
	t.counts["cache.miss_ratio"] = cs.c.Stats.MissRatio()
	t.idx = make([]uint32, 0, len(t.misses))

	rs := &runStore{}
	if _, err := t.capture(false, func(m *machine.Machine) { m.SetRunCapture(rs) }); err != nil {
		return nil, err
	}
	t.runs = rs.entries

	sw, _ := lookup("store-mixed")
	if t.st, err = newStoreMix(sw, seed, scratch); err != nil {
		return nil, err
	}
	if t.uncapped, err = store.Open(t.st.dir+"-uncapped", store.Options{MaxBytes: -1}); err != nil {
		t.st.close()
		return nil, err
	}
	return t, nil
}

func (t *tracer) close() {
	for _, err := range []error{t.st.close(), os.RemoveAll(t.uncapped.Dir())} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
}

// capture runs the app in capture mode with the sink arm installs,
// polled (as the sharded engine runs) or unpolled (as the interval
// engine runs), and returns the run's host time.
func (t *tracer) capture(polled bool, arm func(*machine.Machine)) (float64, error) {
	sys, err := newSystem(t.w.rep, false)
	if err != nil {
		return 0, err
	}
	arm(sys.Machine)
	var runErr error
	secs := timed(func() {
		if polled {
			runErr = sys.RunContext(context.Background(), t.w.budget)
		} else {
			sys.Run(t.w.budget)
		}
		sys.Machine.FlushCapture()
	})
	return secs, runErr
}

// simulate runs the app on a full system, as the experiments package runs
// its sequential cells, and returns the system and the run's host time.
func (t *tracer) simulate(truth bool, p core.Profiler) (*membottle.System, float64, error) {
	sys, err := newSystem(t.w.rep, truth)
	if err != nil {
		return nil, 0, err
	}
	if p != nil {
		if err := sys.Attach(p); err != nil {
			return nil, 0, err
		}
	}
	var runErr error
	secs := timed(func() { runErr = sys.RunContext(context.Background(), t.w.budget) })
	return sys, secs, runErr
}

func (t *tracer) add(name string, v float64) { t.s[name] = append(t.s[name], v) }

// fail counts one failed operation and says on standard error which.
func (t *tracer) fail(format string, args ...any) {
	t.failed++
	fmt.Fprintf(os.Stderr, "trace: "+format+"\n", args...)
}

// storePass counts a checked store pass's operations and failures.
func (t *tracer) storePass(ps passStats) {
	t.attempted += ps.ops
	t.failed += ps.failed
	if ps.failed > 0 {
		fmt.Fprintf(os.Stderr, "trace: store: %d of %d operations in a pass failed\n", ps.failed, ps.ops)
	}
}

// round times every probe once, and the capture probes and the stacks
// that arm no timer cheapReps times.
func (t *tracer) round() error {
	for rep := 0; rep < cheapReps; rep++ {
		if err := t.stackProbes(rep == 0); err != nil {
			return err
		}
	}
	if err := t.directProbes(); err != nil {
		return err
	}
	if err := t.engineProbes(); err != nil {
		return err
	}
	t.topProbes()
	return t.storeProbes()
}

// stackProbes time the two capture probes and the stacks, leaving out
// the timer-armed stacks unless armed is set.
func (t *tracer) stackProbes(armed bool) error {
	var c refCounter
	secs, err := t.capture(true, func(m *machine.Machine) { m.SetCapture(&c) })
	if err != nil {
		return err
	}
	t.add("gen", secs)
	t.counts["workload.refs"] = float64(c.refs)

	secs, err = t.capture(true, func(m *machine.Machine) {
		m.SetCapture(&cacheSink{c: cache.New(m.Cache.Config())})
	})
	if err != nil {
		return err
	}
	t.add("cache", secs)

	stacks := []struct {
		name  string
		truth bool
		armed bool
		p     func() core.Profiler
	}{
		{"plain", false, false, nil},
		{"truth", true, false, nil},
		{"nulltimer", true, true, func() core.Profiler { return nullTimer{} }},
		{"search", true, true, func() core.Profiler { return core.NewSearch(core.SearchConfig{N: searchN, Interval: searchInterval}) }},
		{"nullmiss", true, false, func() core.Profiler { return nullMiss{interval: t.sampleEvery} }},
		{"sampler", true, false, func() core.Profiler {
			return core.NewSampler(core.SamplerConfig{Interval: t.sampleEvery, Seed: t.seed})
		}},
	}
	for _, st := range stacks {
		if st.armed && !armed {
			continue
		}
		var p core.Profiler
		if st.p != nil {
			p = st.p()
		}
		sys, secs, err := t.simulate(st.truth, p)
		if err != nil {
			return err
		}
		t.add(st.name, secs)
		switch st.name {
		case "nullmiss":
			t.counts["machine.interrupts"] = float64(sys.Machine.Interrupts)
		case "search":
			t.counts["core.search_rounds"] = float64(p.(*core.Search).Iterations())
		case "sampler":
			t.counts["core.samples"] = float64(p.(*core.Sampler).Samples())
		}
	}
	return nil
}

// directProbes feed the plain run's miss addresses straight into the PMU
// with the search's ten regions programmed, and into an object-map
// resolver, as the shard workers resolve misses.
func (t *tracer) directProbes() error {
	p := pmu.New(searchN)
	span := uint64(t.hi - t.lo)
	for i := 0; i < searchN; i++ {
		p.SetRegion(i, t.lo+mem.Addr(span*uint64(i)/searchN), t.lo+mem.Addr(span*uint64(i+1)/searchN))
	}
	t.add("pmu", timed(func() {
		for _, a := range t.misses {
			p.RecordMiss(a)
		}
	}))
	if p.GlobalMisses != uint64(len(t.misses)) {
		return fmt.Errorf("trace: pmu counted %d of %d misses", p.GlobalMisses, len(t.misses))
	}

	sys, err := newSystem(t.w.rep, false)
	if err != nil {
		return err
	}
	res := sys.Objects.Resolver()
	var found int
	t.add("objmap", timed(func() {
		for _, a := range t.misses {
			if res.Lookup(a) != nil {
				found++
			}
		}
	}))
	if found == 0 && len(t.misses) > 0 {
		return fmt.Errorf("trace: no miss resolved to an object")
	}
	return nil
}

// engineProbes time the sharded and interval engines whole, then their
// capture and cache stages one after another on one goroutine.
func (t *tracer) engineProbes() error {
	w, err := membottle.NewWorkload(t.w.rep)
	if err != nil {
		return err
	}
	var shardErr error
	t.add("shard", timed(func() { _, shardErr = shard.Run(nil, w, t.w.budget, shard.Config{Workers: workers()}) }))
	if shardErr != nil {
		return shardErr
	}

	n := 1
	for n < workers() {
		n <<= 1
	}
	if len(t.shards) != n {
		t.shards = make([][]uint64, n)
	}
	for i := range t.shards {
		t.shards[i] = t.shards[i][:0]
	}
	cfg := cache.DefaultConfig()
	snk := &shardSink{shift: uint(bits.TrailingZeros(uint(cfg.LineSize))), mask: uint64(n - 1), bufs: t.shards}
	secs, err := t.capture(true, func(m *machine.Machine) { m.SetCapture(snk) })
	if err != nil {
		return err
	}
	t.shards = snk.bufs
	t.add("shard.capture", secs)

	sys, err := newSystem(t.w.rep, false)
	if err != nil {
		return err
	}
	var sweep float64
	total := timed(func() {
		for i, buf := range t.shards {
			part, perr := cache.NewPartition(cfg, i, n)
			if perr != nil {
				err = perr
				return
			}
			res := sys.Objects.Resolver()
			sweep += timed(func() { t.idx = part.Sweep(buf, t.idx[:0]) })
			for _, k := range t.idx {
				a, _ := mem.UnpackRef(buf[k])
				res.Lookup(a)
			}
		}
	})
	if err != nil {
		return err
	}
	t.add("shard.sweep", total)
	t.add("cache.sweep", sweep)

	part, err := cache.NewPartition(cfg, 0, 1)
	if err != nil {
		return err
	}
	t.add("cache.sweep_runs", timed(func() { t.idx = part.SweepRuns(t.runs, t.idx[:0]) }))

	var rc runCounter
	secs, err = t.capture(false, func(m *machine.Machine) { m.SetRunCapture(&rc) })
	if err != nil {
		return err
	}
	t.add("interval.capture", secs)
	if float64(rc.refs) != t.counts["workload.refs"] {
		return fmt.Errorf("trace: run capture saw %d references, reference capture %g", rc.refs, t.counts["workload.refs"])
	}

	if w, err = membottle.NewWorkload(t.w.rep); err != nil {
		return err
	}
	var ir *interval.Result
	var irErr error
	t.add("interval", timed(func() {
		ir, irErr = interval.Run(nil, w, t.w.budget, interval.Config{Seed: t.seed, Workers: workers()})
	}))
	if irErr != nil {
		return irErr
	}
	t.counts["interval.sim_fraction"] = float64(ir.SimRefs) / float64(ir.Plan.TotalRefs)
	return nil
}

// topProbes time the whole operations the workloads are made of, for
// the rep app, untraced, and check them against the exact engines.
func (t *tracer) topProbes() {
	var err error
	t.add("cell", timed(func() { t.cell, err = experiments.Table1App(t.w.rep, t.opt) }))
	t.attempted++
	if err != nil || !reflect.DeepEqual(t.cell, t.cellOracle) {
		t.fail("table1 %s: cell differs from the exact engines' cell (err %v)", t.w.rep, err)
	}
	t.add("report", timed(func() { t.report, err = experiments.IntervalErrorsApp(t.w.rep, t.opt) }))
	t.attempted++
	if err != nil || !reflect.DeepEqual(t.report, t.reportOracle) {
		t.fail("intervals %s: report differs from the exact engines' report (err %v)", t.w.rep, err)
	}

	var tab interface{ Render(io.Writer) error }
	if t.w.kind == kindInterval {
		tab = experiments.RenderIntervalErrors([]experiments.IntervalResult{t.report})
	} else {
		tab = experiments.RenderTable1([]experiments.AppResult{t.cell})
	}
	t.add("render", timed(func() {
		for i := 0; i < renderReps; i++ {
			_ = tab.Render(io.Discard) // io.Discard never fails
		}
	})/renderReps)
}

// storeProbes run two passes of the store workload: one timing each
// operation, one timed whole as the top operation, so the sum check
// compares independent measurements. Then they read the most recent
// writes back with direct store.Get calls.
func (t *tracer) storeProbes() error {
	ps := t.st.pass()
	t.s["store.op_get"] = append(t.s["store.op_get"], t.st.getSecs...)
	t.s["store.put"] = append(t.s["store.put"], t.st.putSecs...)
	t.st.check(&ps)
	t.storePass(ps)

	t.add("store.batch", timed(func() { ps = t.st.pass() }))
	t.st.check(&ps)
	t.storePass(ps)

	for _, rec := range t.st.recent {
		var got []byte
		var ok bool
		t.add("store.get", timed(func() { got, ok = t.st.st.Get(rec.key) }))
		t.attempted++
		if !ok || !bytes.Equal(got, rec.payload) {
			t.fail("store: a recent write read back missing or altered (found %v)", ok)
		}
	}
	for i := 0; i < storePuts; i++ {
		key, payload := t.st.key("write", uint64(len(t.s["store.write"]))), t.st.payload()
		var err error
		t.add("store.write", timed(func() { err = t.uncapped.Put(key, payload) }))
		t.attempted++
		if err != nil {
			t.fail("store: uncapped put: %v", err)
		}
	}
	n, err := t.st.st.Len()
	t.counts["store.entries"] = float64(n)
	return err
}

// result derives the per-layer metrics from the round medians and makes
// the sum and sign checks.
func (t *tracer) result() result {
	m := func(name string) float64 { return median(t.s[name]) }
	names := make([]string, 0, len(t.s))
	for name := range t.s {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "probe %-18s median %.6fs  iqr %.6fs  n %d\n", name, m(name), iqr(t.s[name]), len(t.s[name]))
	}
	self := []struct {
		name         string
		upper, lower string
	}{
		{"cache.access_batch_s", "cache", "gen"},
		{"machine.dispatch_s", "plain", "cache"},
		{"truth.attr_s", "truth", "plain"},
		{"machine.timer_armed_s", "nulltimer", "truth"},
		{"core.search_s", "search", "nulltimer"},
		{"machine.irq_s", "nullmiss", "truth"},
		{"core.sampler_s", "sampler", "nullmiss"},
	}
	ok := true
	layers := map[string]float64{"workload.gen_s": m("gen")}
	for _, l := range self {
		v := m(l.upper) - m(l.lower)
		layers[l.name] = v
		noise := noiseShare*m(l.upper) + noiseFloor + iqr(t.s[l.upper]) + iqr(t.s[l.lower])
		if v < -noise {
			fmt.Fprintf(os.Stderr, "trace: %s self time %.4fs is negative beyond noise (%.4fs)\n", l.name, v, noise)
			ok = false
		}
	}

	var top, sum float64
	switch t.w.kind {
	case kindTable1:
		top = m("cell")
		// The sampling and search runs each stack gen, cache, dispatch and
		// truth, then their own armed hardware and handler.
		shared := layers["workload.gen_s"] + layers["cache.access_batch_s"] + layers["machine.dispatch_s"] + layers["truth.attr_s"]
		sum = m("shard") + 2*shared +
			layers["machine.timer_armed_s"] + layers["core.search_s"] +
			layers["machine.irq_s"] + layers["core.sampler_s"]
	case kindInterval:
		top = m("report")
		sum = m("shard") + m("interval")
	case kindStore:
		top = m("store.batch")
		sum = (storeBatch-storePuts)*m("store.op_get") + storePuts*m("store.put")
	}
	overhead := sum / top
	if overhead < 1-sumTolerance || overhead > 1+sumTolerance {
		fmt.Fprintf(os.Stderr, "trace: layer sum %.4fs is %.3f of the top operation's %.4fs (tolerance %.2f)\n",
			sum, overhead, top, sumTolerance)
		ok = false
	}

	ms := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = 1000 * x
		}
		return out
	}
	get, put, opGet, write := ms(t.s["store.get"]), ms(t.s["store.put"]), ms(t.s["store.op_get"]), ms(t.s["store.write"])
	search, sample := cellErrs(t.cell)
	metrics := map[string]metric{
		"workload.gen_s":           {layers["workload.gen_s"], "s"},
		"workload.refs":            {t.counts["workload.refs"], "count"},
		"cache.access_batch_s":     {layers["cache.access_batch_s"], "s"},
		"cache.sweep_s":            {m("cache.sweep"), "s"},
		"cache.sweep_runs_s":       {m("cache.sweep_runs"), "s"},
		"cache.miss_ratio":         {t.counts["cache.miss_ratio"], "ratio"},
		"machine.dispatch_s":       {layers["machine.dispatch_s"], "s"},
		"machine.timer_armed_s":    {layers["machine.timer_armed_s"], "s"},
		"machine.irq_s":            {layers["machine.irq_s"], "s"},
		"machine.interrupts":       {t.counts["machine.interrupts"], "count"},
		"pmu.record_miss_s":        {m("pmu"), "s"},
		"truth.attr_s":             {layers["truth.attr_s"], "s"},
		"objmap.lookup_s":          {m("objmap"), "s"},
		"core.search_s":            {layers["core.search_s"], "s"},
		"core.search_rounds":       {t.counts["core.search_rounds"], "count"},
		"core.sampler_s":           {layers["core.sampler_s"], "s"},
		"core.samples":             {t.counts["core.samples"], "count"},
		"core.search_err_pp":       {search, "pp"},
		"core.sample_err_pp":       {sample, "pp"},
		"core.search_slowdown_pct": {t.cell.SearchOverhead.SlowdownPct(), "%"},
		"core.sample_slowdown_pct": {t.cell.SampleOverhead.SlowdownPct(), "%"},
		"shard.run_s":              {m("shard"), "s"},
		"shard.capture_s":          {m("shard.capture"), "s"},
		"shard.sweep_s":            {m("shard.sweep"), "s"},
		"shard.overlap":            {(m("shard.capture") + m("shard.sweep")) / m("shard"), "ratio"},
		"interval.run_s":           {m("interval"), "s"},
		"interval.capture_s":       {m("interval.capture"), "s"},
		"interval.other_s":         {m("interval") - m("interval.capture"), "s"},
		"interval.sim_fraction":    {t.counts["interval.sim_fraction"], "ratio"},
		"interval.max_rel_pct":     {t.report.Report.MaxRel, "%"},
		"store.get_ms_p50":         {median(get), "ms"},
		"store.get_ms_p99":         {nearestRank(get, 99), "ms"},
		"store.put_ms_p50":         {median(put), "ms"},
		"store.put_ms_p99":         {nearestRank(put, 99), "ms"},
		"store.decode_ms_p50":      {median(opGet) - median(get), "ms"},
		"store.write_ms_p50":       {median(write), "ms"},
		"store.entries":            {t.counts["store.entries"], "count"},
		"report.render_ms":         {1000 * m("render"), "ms"},
		"trace.top_s":              {top, "s"},
		"trace.layer_sum_s":        {sum, "s"},
		"trace.overhead":           {overhead, "ratio"},
	}
	fmt.Printf("traced %s seed %d: %d rounds, rep app %s, %d store get samples, %d put samples\n",
		t.w.name, t.seed, len(t.s["cell"]), t.w.rep, len(get), len(put))
	return result{
		Correct:   ok && t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics,
	}
}

// cacheSink replays captured references through a cache with
// AccessBatch, optionally keeping each miss's address.
type cacheSink struct {
	c       *cache.Cache
	collect bool
	misses  []mem.Addr
}

func (s *cacheSink) ConsumeRefs(refs []machine.Ref, _ uint64) {
	for len(refs) > 0 {
		n, _, missed := s.c.AccessBatch(refs)
		if missed && s.collect {
			s.misses = append(s.misses, refs[n-1].Addr)
		}
		refs = refs[n:]
	}
}

// shardSink routes captured references into per-shard packed streams by
// the low bits of their set index, as the sharded engine does.
type shardSink struct {
	shift uint
	mask  uint64
	bufs  [][]uint64
}

func (s *shardSink) ConsumeRefs(refs []machine.Ref, _ uint64) {
	for i := range refs {
		r := &refs[i]
		sh := (uint64(r.Addr) >> s.shift) & s.mask
		s.bufs[sh] = append(s.bufs[sh], mem.PackRef(r.Addr, r.Write))
	}
}

// runCounter counts a run-compacted capture's references.
type runCounter struct{ refs uint64 }

func (c *runCounter) ConsumeRuns(_ []uint64, refs, _, _ uint64) { c.refs += refs }

// runStore keeps a run-compacted capture.
type runStore struct{ entries []uint64 }

func (s *runStore) ConsumeRuns(entries []uint64, _, _, _ uint64) {
	s.entries = append(s.entries, entries...)
}
