package membottle_test

import (
	"bytes"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"membottle"
	"membottle/internal/obs"
)

// obsSamplerSystem is newSamplerSystem with an observability bundle
// attached (or not), on the batched engine.
func obsSamplerSystem(t *testing.T, app string, o *membottle.Obs) (*membottle.System, *membottle.Sampler) {
	t.Helper()
	cfg := membottle.DefaultConfig()
	cfg.Obs = o
	return newSamplerSystem(t, cfg, app)
}

// TestObsDeterminism is the layer's core contract: attaching metrics and
// tracing must not change the simulation by one bit. The proof is the
// same one the checkpoint/resume tests use — the final checkpoints of an
// instrumented and an uninstrumented run are byte-identical — plus equal
// profiler estimates.
func TestObsDeterminism(t *testing.T) {
	const app, budget = "tomcatv", uint64(24_000_000)

	plain, plainProf := obsSamplerSystem(t, app, nil)
	if err := plain.RunContext(nil, budget); err != nil {
		t.Fatalf("plain run: %v", err)
	}
	var want bytes.Buffer
	if err := plain.Checkpoint(&want); err != nil {
		t.Fatalf("plain checkpoint: %v", err)
	}

	o := membottle.NewObs(membottle.ObsOptions{})
	observed, obsProf := obsSamplerSystem(t, app, o)
	if err := observed.RunContext(nil, budget); err != nil {
		t.Fatalf("observed run: %v", err)
	}
	observed.FlushObs()
	var got bytes.Buffer
	if err := observed.Checkpoint(&got); err != nil {
		t.Fatalf("observed checkpoint: %v", err)
	}

	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("observability changed the simulation: checkpoints differ (%d vs %d bytes)",
			want.Len(), got.Len())
	}
	if plain.Machine.State() != observed.Machine.State() {
		t.Errorf("machine state diverged: %+v vs %+v", plain.Machine.State(), observed.Machine.State())
	}
	pe, oe := plainProf.Estimates(), obsProf.Estimates()
	if len(pe) != len(oe) {
		t.Fatalf("estimate counts diverged: %d vs %d", len(pe), len(oe))
	}
	for i := range pe {
		if pe[i].Object.Name != oe[i].Object.Name || pe[i].Pct != oe[i].Pct || pe[i].Samples != oe[i].Samples {
			t.Errorf("estimate %d diverged: %+v vs %+v", i, pe[i], oe[i])
		}
	}

	// And the bundle actually recorded the run: the checkpoint written
	// above must be in the histogram, interrupts counted, events traced.
	if n := o.Interrupts.Value(); n == 0 || n != observed.Machine.Interrupts {
		t.Errorf("obs interrupts = %d, machine delivered %d", n, observed.Machine.Interrupts)
	}
	if o.Checkpoints.Value() != 1 || o.CheckpointBytes.Count() != 1 {
		t.Errorf("checkpoint instruments: writes=%d sized=%d, want 1/1",
			o.Checkpoints.Value(), o.CheckpointBytes.Count())
	}
	if o.CheckpointBytes.Sum() != uint64(got.Len()) {
		t.Errorf("checkpoint bytes histogram sum %d, wrote %d", o.CheckpointBytes.Sum(), got.Len())
	}
}

// TestObsIntegrationSampler checks the recorded numbers against the
// simulation's own counters and the exported formats against their
// decoders.
func TestObsIntegrationSampler(t *testing.T) {
	const budget = uint64(8_000_000)
	o := membottle.NewObs(membottle.ObsOptions{})
	sys, prof := obsSamplerSystem(t, "mgrid", o)
	if err := sys.RunContext(nil, budget); err != nil {
		t.Fatal(err)
	}
	sys.FlushObs()

	m := sys.Machine
	reg := o.Registry
	if got := o.MissIrqs.Value() + o.TimerIrqs.Value(); got != m.Interrupts {
		t.Errorf("miss+timer irqs = %d, machine interrupts %d", got, m.Interrupts)
	}
	if got := o.Samples.Value(); got != prof.Samples() {
		t.Errorf("obs samples %d, sampler took %d", got, prof.Samples())
	}
	if got := o.IrqLatency.Count(); got != m.Interrupts {
		t.Errorf("latency observations %d, interrupts %d", got, m.Interrupts)
	}
	if got := o.IrqLatency.Sum(); got != m.HandlerCycles {
		t.Errorf("latency cycle sum %d, handler cycles %d", got, m.HandlerCycles)
	}
	if got := reg.Counter("sim.cycles").Value(); got != m.Cycles {
		t.Errorf("flushed cycles %d, machine %d", got, m.Cycles)
	}
	if o.Batches.Value() == 0 || o.BatchRefs.Value() == 0 {
		t.Error("batched hot path recorded nothing")
	}

	// Summary renders and mentions the load-bearing names.
	var sb strings.Builder
	if err := o.Snapshot().WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"-- metrics summary", "sim.interrupts", "core.samples", "sim.irq_latency_cycles"} {
		if !strings.Contains(sb.String(), name) {
			t.Errorf("summary missing %q", name)
		}
	}

	// The trace exports round-trip through the strict decoder.
	events := o.Tracer.Events()
	if len(events) == 0 {
		t.Fatal("tracer recorded no events")
	}
	var jl bytes.Buffer
	if err := obs.WriteJSONL(&jl, events); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadJSONL(bytes.NewReader(jl.Bytes()))
	if err != nil {
		t.Fatalf("exported JSONL does not decode: %v", err)
	}
	if len(back) != len(events) {
		t.Fatalf("JSONL round trip lost events: %d -> %d", len(events), len(back))
	}
	var ct bytes.Buffer
	if err := obs.WriteChromeTrace(&ct, events); err != nil {
		t.Fatalf("chrome export failed: %v", err)
	}
	// Within each kind, cycles are nondecreasing (an interrupt's slice
	// event carries its start cycle but is emitted after the handler
	// returns, so kinds may interleave; order within a kind must hold).
	last := map[obs.EventKind]uint64{}
	for i, ev := range events {
		if ev.Cycle < last[ev.Kind] {
			t.Fatalf("%v events out of order at %d: %d after %d", ev.Kind, i, ev.Cycle, last[ev.Kind])
		}
		last[ev.Kind] = ev.Cycle
	}
}

// measureAlternating times two configurations best-of-reps, alternating
// within each repetition like cmd/mbbench does, and returns the fastest
// wall time of each, the median over repetitions of B's time over A's,
// and their (must-match) reference counts. The two runs of a repetition
// go back to back, so a slow spell of a noisy host inflates both sides
// of its ratio, where it can swing one side's best time alone.
func measureAlternating(t *testing.T, reps int, runA, runB func() uint64) (bestA, bestB time.Duration, medRatio float64, refsA, refsB uint64) {
	t.Helper()
	ratios := make([]float64, 0, reps)
	for rep := 0; rep < reps; rep++ {
		runtime.GC()
		start := time.Now()
		ra := runA()
		da := time.Since(start)
		runtime.GC()
		start = time.Now()
		rb := runB()
		db := time.Since(start)
		ratios = append(ratios, float64(db)/float64(da))
		if rep == 0 {
			bestA, bestB, refsA, refsB = da, db, ra, rb
			continue
		}
		if ra != refsA || rb != refsB {
			t.Fatalf("nondeterministic repetition: refs %d/%d then %d/%d", refsA, refsB, ra, rb)
		}
		if da < bestA {
			bestA = da
		}
		if db < bestB {
			bestB = db
		}
	}
	sort.Float64s(ratios)
	return bestA, bestB, ratios[len(ratios)/2], refsA, refsB
}

// TestObsOverheadGuard enforces the hot-path budget: with Obs nil the
// batched engine pays one nil check per batch, so an obs-off run must not
// be measurably slower than... itself with obs attached beyond a small
// factor, and the reference streams must be identical (the determinism
// tripwire). Wall-clock thresholds are generous by default because CI
// machines are noisy; set MB_OVERHEAD_STRICT=1 on quiet hardware for the
// 3% bound the observability layer is designed to. The obs-table1 and
// obs-figure3 families of cmd/mbbench are the documenting benchmark behind
// the README numbers.
func TestObsOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped in -short")
	}
	// The limit applies to the median of 15 back-to-back ratios of runs
	// of 30-60ms (on a 2-vCPU host). A ratio of best-of-3 times of ~10ms
	// runs read up to 1.5x on an unchanged tree.
	const app, budget, reps = "mgrid", uint64(16_000_000), 15

	run := func(o *membottle.Obs) uint64 {
		cfg := membottle.DefaultConfig()
		cfg.SkipTruth = true
		cfg.Obs = o
		sys := membottle.NewSystem(cfg)
		if err := sys.LoadWorkloadByName(app); err != nil {
			t.Fatal(err)
		}
		sys.Run(budget)
		sys.FlushObs()
		return sys.Machine.Cache.Stats.Accesses()
	}

	offNs, onNs, ratio, offRefs, onRefs := measureAlternating(t, reps,
		func() uint64 { return run(nil) },
		func() uint64 { return run(membottle.NewObs(membottle.ObsOptions{})) },
	)
	if offRefs != onRefs {
		t.Fatalf("obs changed the reference stream: %d refs off, %d on", offRefs, onRefs)
	}
	if raceDetectorEnabled {
		t.Log("race detector build: refs verified, timing assertions skipped")
		return
	}
	limit := 1.25
	if os.Getenv("MB_OVERHEAD_STRICT") == "1" {
		limit = 1.03
	}
	t.Logf("best obs-off %v, obs-on %v; median ratio %.3fx (limit %.2fx)", offNs, onNs, ratio, limit)
	if ratio > limit {
		t.Errorf("obs-on run is %.2fx the obs-off run, over the %.2fx limit", ratio, limit)
	}
}

// TestObsOffKeepsBatchedSpeedup guards the other side of the bargain:
// with Obs nil, the batched engine still beats the scalar loop by a clear
// margin, so the instrumentation points did not erode the fast path.
func TestObsOffKeepsBatchedSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped in -short")
	}
	if raceDetectorEnabled {
		t.Skip("timing test; meaningless under the race detector")
	}
	const app, budget, reps = "mgrid", uint64(4_000_000), 3

	run := func(scalar bool) uint64 {
		cfg := membottle.DefaultConfig()
		cfg.SkipTruth = true
		cfg.ScalarRefs = scalar
		sys := membottle.NewSystem(cfg)
		if err := sys.LoadWorkloadByName(app); err != nil {
			t.Fatal(err)
		}
		sys.Run(budget)
		return sys.Machine.Cache.Stats.Accesses()
	}

	scalarNs, batchedNs, _, scalarRefs, batchedRefs := measureAlternating(t, reps,
		func() uint64 { return run(true) },
		func() uint64 { return run(false) },
	)
	if scalarRefs != batchedRefs {
		t.Fatalf("engines diverged: scalar %d refs, batched %d", scalarRefs, batchedRefs)
	}
	speedup := float64(scalarNs) / float64(batchedNs)
	t.Logf("scalar %v, batched %v, speedup %.2fx", scalarNs, batchedNs, speedup)
	if speedup < 1.15 {
		t.Errorf("batched speedup %.2fx below the 1.15x floor — hot path regressed", speedup)
	}
}

// TestObsProgressDoesNotPerturb runs with the progress hook ticking as
// fast as the wall clock allows and checks the simulation still matches
// an unhooked run exactly.
func TestObsProgressDoesNotPerturb(t *testing.T) {
	const app, budget = "mgrid", uint64(4_000_000)
	plain, _ := obsSamplerSystem(t, app, nil)
	if err := plain.RunContext(nil, budget); err != nil {
		t.Fatal(err)
	}
	hooked, _ := obsSamplerSystem(t, app, nil)
	p := hooked.AttachProgress(&bytes.Buffer{}, time.Nanosecond, budget)
	if err := hooked.RunContext(nil, budget); err != nil {
		t.Fatal(err)
	}
	if p.Lines() == 0 {
		t.Error("progress hook never printed")
	}
	if plain.Machine.State() != hooked.Machine.State() {
		t.Errorf("progress hook perturbed the run: %+v vs %+v",
			plain.Machine.State(), hooked.Machine.State())
	}
}
