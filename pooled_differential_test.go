// Differential tests for the zero-allocation batched engine: its
// allocation-free paths (line-at-a-time strided ranges, caller-provided
// counter arenas) must not change a single counter. Three engines run
// every configuration — the scalar per-reference oracle, the batched
// engine in one continuous Run, and the batched engine split across
// continuation legs so its reused state carries across Run calls — and
// all three must agree on machine state, ground truth, and sampler
// counters, down to byte-identical checkpoints.
package membottle_test

import (
	"bytes"
	"reflect"
	"testing"

	"membottle"
)

// diffBudget keeps each leg around a second; the engines disagree or
// they don't — more instructions would not change the verdict.
const diffBudget = uint64(8_000_000)

// runEngine executes one app under one engine mode and returns the
// finished system plus its sampler (nil when sampled is false).
func runEngine(t *testing.T, app, mode string, sampled bool) (*membottle.System, *membottle.Sampler) {
	t.Helper()
	cfg := membottle.DefaultConfig()
	cfg.ScalarRefs = mode == "scalar"
	sys := membottle.NewSystem(cfg)
	if err := sys.LoadWorkloadByName(app); err != nil {
		t.Fatalf("%s: load: %v", app, err)
	}
	var smp *membottle.Sampler
	if sampled {
		smp = membottle.NewSampler(membottle.SamplerConfig{Interval: 2_000})
		if err := sys.Attach(smp); err != nil {
			t.Fatalf("%s: attach: %v", app, err)
		}
	}
	if mode == "split" {
		// Continuation legs: the later legs resume from the state the
		// first one leaves (workload cursors, cache, PMU).
		sys.Run(diffBudget / 4)
		sys.Run(diffBudget / 2)
	}
	sys.Run(diffBudget)
	return sys, smp
}

// assertEnginesAgree runs one configuration under all three engines and
// compares every observable counter against the scalar oracle.
func assertEnginesAgree(t *testing.T, app string, sampled bool) {
	t.Helper()
	oracle, oracleSmp := runEngine(t, app, "scalar", sampled)
	for _, mode := range []string{"batched", "split"} {
		got, gotSmp := runEngine(t, app, mode, sampled)
		if o, g := oracle.Machine.State(), got.Machine.State(); o != g {
			t.Errorf("%s/%s: machine state diverged from scalar oracle:\n  scalar %+v\n  %s %+v",
				app, mode, o, mode, g)
		}
		if o, g := oracle.Truth.Ranked(), got.Truth.Ranked(); !reflect.DeepEqual(o, g) {
			t.Errorf("%s/%s: ground-truth ranking diverged from scalar oracle:\n  scalar %v\n  %s %v",
				app, mode, o, mode, g)
		}
		if sampled {
			if o, g := oracleSmp.Samples(), gotSmp.Samples(); o != g {
				t.Errorf("%s/%s: samples diverged: scalar %d, %s %d", app, mode, o, mode, g)
			}
			if o, g := oracleSmp.Matched(), gotSmp.Matched(); o != g {
				t.Errorf("%s/%s: matched samples diverged: scalar %d, %s %d", app, mode, o, mode, g)
			}
		}
	}
}

// TestPooledEnginesAgreeTable1 is the uninstrumented differential — the
// configuration behind Table 1's "Actual" column.
func TestPooledEnginesAgreeTable1(t *testing.T) {
	for _, app := range []string{"tomcatv", "mgrid", "compress"} {
		t.Run(app, func(t *testing.T) { assertEnginesAgree(t, app, false) })
	}
}

// TestPooledEnginesAgreeFigure3 is the instrumented differential —
// Figure 3's perturbation configuration, with the miss sampler
// interrupting every 2,000 misses so batches end early and the nested
// handler traffic exercises the pool at interrupt depth.
func TestPooledEnginesAgreeFigure3(t *testing.T) {
	for _, app := range []string{"tomcatv", "mgrid", "compress"} {
		t.Run(app, func(t *testing.T) { assertEnginesAgree(t, app, true) })
	}
}

// TestPooledCheckpointByteIdentical holds the pooled engine to the
// strongest equivalence there is: the serialized snapshot. Three
// sampled runs of the same configuration — batched, batched split
// across continuation legs, and the scalar oracle — must produce
// byte-for-byte identical checkpoints, because nothing in a snapshot
// (machine, cache, PMU, space fingerprint, truth, profiler state) may
// depend on which engine or buffer strategy produced it.
func TestPooledCheckpointByteIdentical(t *testing.T) {
	const app = "tomcatv"
	snapshots := map[string]*bytes.Buffer{}
	for _, mode := range []string{"batched", "split", "scalar"} {
		sys, _ := runEngine(t, app, mode, true)
		var buf bytes.Buffer
		if err := sys.Checkpoint(&buf); err != nil {
			t.Fatalf("%s: checkpoint: %v", mode, err)
		}
		snapshots[mode] = &buf
	}
	want := snapshots["batched"].Bytes()
	for _, mode := range []string{"split", "scalar"} {
		if got := snapshots[mode].Bytes(); !bytes.Equal(want, got) {
			t.Errorf("%s checkpoint differs from batched checkpoint (%d vs %d bytes)",
				mode, len(got), len(want))
		}
	}
}
