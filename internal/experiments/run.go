package experiments

import (
	"errors"
	"fmt"
	"sort"

	"membottle"
	"membottle/internal/capture"
	"membottle/internal/core"
	"membottle/internal/shard"
	"membottle/internal/truth"
)

// newSystem builds a simulated system honouring the run options: the
// scalar-vs-batched engine selection, the invariant sanitizer, and
// fault injection (re-salted by the current retry attempt). withTruth
// attaches ground-truth accounting; the sanitizer cross-checks against
// it, so a sanitized system always carries it.
func newSystem(opt Options, withTruth bool) *membottle.System {
	cfg := membottle.DefaultConfig()
	cfg.ScalarRefs = opt.Scalar
	cfg.Sanitize = opt.Sanitize
	cfg.SkipTruth = !withTruth && !opt.Sanitize
	if opt.Faults != nil {
		fc := opt.Faults.WithSeed(opt.attempt)
		cfg.Faults = &fc
	}
	cfg.Obs = opt.Obs
	return membottle.NewSystem(cfg)
}

// superviseRun executes the loaded workload under the run options'
// context and attributes any failure to injected faults when the
// system's injector actually fired, making it retryable.
func superviseRun(opt Options, sys *membottle.System, app string, budget uint64) error {
	err := sys.RunContext(opt.Ctx, budget)
	sys.FlushObs()
	if err == nil {
		return nil
	}
	if st := sys.FaultStats(); st != nil && st.Total() > 0 && !errors.Is(err, membottle.ErrCancelled) {
		return &membottle.InjectedError{App: app, Reason: err, Stats: *st}
	}
	return err
}

// runPlain executes a workload uninstrumented and returns ground truth
// plus the run's overhead-free statistics. Plain runs are served by the
// captured engine (internal/shard) whenever the options permit (no
// scalar oracle, no sanitizer, no fault injection), falling back to the
// sequential engine otherwise or when the workload is outside the
// captured engine's static preconditions; results are byte-identical
// either way. With a TruthCache attached, identical baseline runs are
// simulated once per invocation and shared; with a persistent Store
// attached too, they are shared across invocations — the lookup path is
// TruthCache → Store → compute.
func runPlain(opt Options, app string, budget uint64) (*truth.Counter, membottle.Overhead, error) {
	if opt.Faults != nil {
		return runPlainUncached(opt, app, budget)
	}
	if opt.TruthCache != nil {
		return opt.TruthCache.get(opt, app, budget)
	}
	return runPlainStored(opt, app, budget)
}

// shardEligible reports whether plain runs may use the captured engine:
// the scalar flag pins runs to the trusted per-reference baseline, the
// sanitizer needs the machine's own cache and interrupt boundaries, and
// fault injection wires into the sequential system's PMU.
func shardEligible(opt Options) bool {
	return !opt.SeqTruth && !opt.Scalar && !opt.Sanitize && opt.Faults == nil
}

func runPlainUncached(opt Options, app string, budget uint64) (*truth.Counter, membottle.Overhead, error) {
	if shardEligible(opt) {
		tc, ov, err := runCaptured(opt, app, budget)
		if !errors.Is(err, capture.ErrFallback) {
			return tc, ov, err
		}
	}
	sys := newSystem(opt, true)
	if err := sys.LoadWorkloadByName(app); err != nil {
		return nil, membottle.Overhead{}, err
	}
	if err := superviseRun(opt, sys, app, budget); err != nil {
		return nil, membottle.Overhead{}, err
	}
	return sys.Truth, sys.Overhead(), nil
}

// runCaptured serves a plain run from the captured engine. A
// capture.ErrFallback means only the sequential engine can serve it.
func runCaptured(opt Options, app string, budget uint64) (*truth.Counter, membottle.Overhead, error) {
	w, err := membottle.NewWorkload(app)
	if err != nil {
		return nil, membottle.Overhead{}, err
	}
	res, err := shard.Run(opt.Ctx, w, budget, shard.Config{Obs: opt.Obs})
	if err != nil {
		return nil, membottle.Overhead{}, err
	}
	return res.Truth, membottle.Overhead{TotalCycles: res.Cycles, TotalMisses: res.Stats.Misses, AppInstructions: res.AppInsts}, nil
}

// runSampler executes a workload under the sampling profiler.
func runSampler(opt Options, app string, budget uint64, cfg core.SamplerConfig) (*core.Sampler, *membottle.System, error) {
	s := core.NewSampler(cfg)
	sys, err := runProfiled(opt, app, budget, s, false)
	if err != nil {
		return nil, nil, err
	}
	return s, sys, nil
}

// runSearch executes a workload under the n-way search profiler.
func runSearch(opt Options, app string, budget uint64, cfg core.SearchConfig) (*core.Search, *membottle.System, error) {
	s := core.NewSearch(cfg)
	sys, err := runProfiled(opt, app, budget, s, false)
	if err != nil {
		return nil, nil, err
	}
	return s, sys, nil
}

// runProfiled executes a workload under profiler p. runSampler and
// runSearch pass withTruth false: their callers read only the estimates
// and Overhead, and take the "Actual" column from a plain run, so the
// profiled system skips the per-miss truth hook unless sanitizing.
func runProfiled(opt Options, app string, budget uint64, p membottle.Profiler, withTruth bool) (*membottle.System, error) {
	sys := newSystem(opt, withTruth)
	if err := sys.LoadWorkloadByName(app); err != nil {
		return nil, err
	}
	if err := sys.Attach(p); err != nil {
		return nil, err
	}
	if err := superviseRun(opt, sys, app, budget); err != nil {
		return nil, err
	}
	return sys, nil
}

// estPct returns the percentage estimated for the named object, 0 if the
// technique did not report it.
func estPct(es []core.Estimate, name string) float64 {
	for _, e := range es {
		if e.Object.Name == name {
			return e.Pct
		}
	}
	return 0
}

// estRank returns the 1-based rank of the named object in the estimates.
func estRank(es []core.Estimate, name string) int {
	for i, e := range es {
		if e.Object.Name == name {
			return i + 1
		}
	}
	return 0
}

// checkApp validates an app name early, for friendlier CLI errors: the
// known names are listed sorted, and a near-miss (one or two edits away,
// as from a typo) earns a "did you mean" suggestion.
func checkApp(app string) error {
	names := membottle.Workloads()
	for _, n := range names {
		if n == app {
			return nil
		}
	}
	sorted := make([]string, len(names))
	copy(sorted, names)
	sort.Strings(sorted)
	if near := nearestName(app, sorted); near != "" {
		return fmt.Errorf("experiments: unknown application %q (did you mean %q? have %v)", app, near, sorted)
	}
	return fmt.Errorf("experiments: unknown application %q (have %v)", app, sorted)
}

// nearestName returns the candidate within Levenshtein distance 2 of
// name (ties broken by sorted order), or "" when nothing is close.
func nearestName(name string, candidates []string) string {
	best, bestDist := "", 3
	for _, c := range candidates {
		if d := editDistance(name, c); d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between two short strings.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
