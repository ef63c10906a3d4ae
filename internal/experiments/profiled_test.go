package experiments

import (
	"reflect"
	"testing"

	"membottle"
	"membottle/internal/core"
)

// TestProfiledRunsIgnoreTruth guards the sampling and search runs'
// dropping of ground truth: the truth hook only observes misses, so a
// profiled run with truth attached and one without must agree on every
// result the experiments read (estimates, Overhead) and on the machine
// state behind them (cache statistics, PMU misses, interrupts).
func TestProfiledRunsIgnoreTruth(t *testing.T) {
	opt := Options{}.withDefaults()
	const budget = 6_000_000
	searchCfg := core.SearchConfig{N: searchN, Interval: 1_000_000}
	for _, app := range []string{"mgrid", "compress"} {
		profilers := map[string]func() membottle.Profiler{
			"sampler": func() membottle.Profiler {
				return core.NewSampler(core.SamplerConfig{Interval: opt.sampleIntervalFor(app), Seed: opt.Seed})
			},
			"search": func() membottle.Profiler {
				return core.NewSearch(searchCfg)
			},
		}
		for name, mk := range profilers {
			withP, withoutP := mk(), mk()
			with, err := runProfiled(opt, app, budget, withP, true)
			if err != nil {
				t.Fatal(err)
			}
			without, err := runProfiled(opt, app, budget, withoutP, false)
			if err != nil {
				t.Fatal(err)
			}
			if with.Truth == nil || without.Truth != nil {
				t.Fatalf("%s/%s: truth attached %v with, %v without", app, name, with.Truth != nil, without.Truth != nil)
			}
			if with.Truth.Total == 0 {
				t.Fatalf("%s/%s: truth saw no misses", app, name)
			}
			if got, want := withoutP.Estimates(), withP.Estimates(); len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: estimates without truth %v, with %v", app, name, got, want)
			}
			if got, want := without.Overhead(), with.Overhead(); got != want {
				t.Errorf("%s/%s: Overhead without truth %+v, with %+v", app, name, got, want)
			}
			wm, om := with.Machine, without.Machine
			if om.Cache.Stats != wm.Cache.Stats {
				t.Errorf("%s/%s: cache stats without truth %+v, with %+v", app, name, om.Cache.Stats, wm.Cache.Stats)
			}
			if om.PMU.GlobalMisses != wm.PMU.GlobalMisses || om.PMU.MissIrqs != wm.PMU.MissIrqs ||
				om.PMU.TimerIrqs != wm.PMU.TimerIrqs || om.Interrupts != wm.Interrupts {
				t.Errorf("%s/%s: PMU without truth misses=%d irqs=%d/%d/%d, with misses=%d irqs=%d/%d/%d", app, name,
					om.PMU.GlobalMisses, om.PMU.MissIrqs, om.PMU.TimerIrqs, om.Interrupts,
					wm.PMU.GlobalMisses, wm.PMU.MissIrqs, wm.PMU.TimerIrqs, wm.Interrupts)
			}
		}
	}
}

// TestProfiledRunsKeepTruthWhenSanitizing checks that the sampling and
// search runs drop ground truth only when the sanitizer, which
// cross-checks against it, is off.
func TestProfiledRunsKeepTruthWhenSanitizing(t *testing.T) {
	const app, budget = "compress", 2_000_000
	for _, sanitize := range []bool{false, true} {
		opt := Options{Sanitize: sanitize}.withDefaults()
		_, samp, err := runSampler(opt, app, budget, core.SamplerConfig{Interval: opt.sampleIntervalFor(app)})
		if err != nil {
			t.Fatal(err)
		}
		_, search, err := runSearch(opt, app, budget, core.SearchConfig{N: searchN, Interval: 1_000_000})
		if err != nil {
			t.Fatal(err)
		}
		if (samp.Truth != nil) != sanitize || (search.Truth != nil) != sanitize {
			t.Errorf("Sanitize=%v: sampler truth %v, search truth %v, want %v",
				sanitize, samp.Truth != nil, search.Truth != nil, sanitize)
		}
	}
}
