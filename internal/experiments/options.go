// Package experiments reproduces the paper's evaluation: Table 1
// (sampling vs. search accuracy), Table 2 (two-way vs. ten-way search),
// Figure 2 (greedy-search ablation), Figure 3 (cache perturbation),
// Figure 4 (instrumentation cost), Figure 5 (applu phases), the §3.1
// sampling-resonance study, and the design ablations listed in DESIGN.md.
//
// Every experiment builds membottle Systems, runs a workload for a fixed
// number of *application* instructions, and compares profiler estimates
// against exact ground truth. Quick mode scales the paper's run lengths
// and sampling interval down (documented in EXPERIMENTS.md); Paper mode
// uses the paper's literal 1-in-50,000 sampling at correspondingly longer
// budgets.
package experiments

import (
	"context"

	"membottle"
	"membottle/internal/cache"
	"membottle/internal/core"
	"membottle/internal/store"
)

// Options controls an experiment run.
type Options struct {
	// Apps to evaluate; defaults to the paper's seven SPEC95 workloads.
	Apps []string
	// Budget is the per-run application instruction budget; 0 selects a
	// per-app default sized so every technique sees enough misses.
	Budget uint64
	// SampleInterval is the misses-between-samples for Table 1; 0 selects
	// a per-app default (2,000 for the dense-miss FP codes, 200 for the
	// sparse-miss compress/ijpeg; 50,000 in Paper mode, as in the paper).
	SampleInterval uint64
	// SampleMode is the interval mode for Table 1 sampling. The paper's
	// Table 1 used a fixed interval (which is what exposed the tomcatv
	// resonance), so Fixed is the default.
	SampleMode core.IntervalMode
	// SearchN is the number of region counters; default 10.
	SearchN int
	// SearchInterval is the initial search iteration length in cycles;
	// default 8,000,000.
	SearchInterval uint64
	// Seed for randomized components.
	Seed int64
	// Paper selects paper-fidelity parameters: 1-in-50,000 sampling and
	// 10x budgets. Runs take roughly ten times longer.
	Paper bool
	// Parallel bounds the number of concurrent simulation runs across
	// applications (each run itself is single-threaded and
	// deterministic). 0 means GOMAXPROCS.
	Parallel int
	// Scalar runs every simulation on the per-reference scalar engine
	// instead of the batched fast path. Output is byte-identical either
	// way (the determinism tests enforce it); scalar mode is the oracle
	// baseline and what cmd/mbbench's table1, figure3 and replay families
	// measure speedups against.
	Scalar bool
	// Ctx, when non-nil, supervises every simulation run: cancelling it
	// stops in-flight runs cleanly at workload step boundaries, and the
	// affected cells report a typed ErrCancelled.
	Ctx context.Context
	// Sanitize enables the invariant sanitizer on every run (see
	// membottle.Config.Sanitize). Violations fail the affected cell with
	// an InvariantError.
	Sanitize bool
	// Faults, when non-nil and enabled, installs the deterministic fault
	// injector on every run it applies to (see membottle.Config.Faults).
	Faults *membottle.FaultConfig
	// Retries bounds how many times a cell whose failure is attributed
	// to injected faults is re-run (with a deterministically re-salted
	// fault seed). 0 means no retries.
	Retries int
	// Obs, when non-nil, attaches the shared observability bundle to
	// every run the experiment performs (parallel cells record into it
	// concurrently) and flushes each run's totals into its registry.
	Obs *membottle.Obs
	// SeqTruth forces uninstrumented ("plain") ground-truth runs onto the
	// sequential engine instead of the set-sharded parallel one. Output
	// is byte-identical either way (the shard differential tests enforce
	// it); the sequential engine is the oracle baseline and what
	// cmd/mbbench's truth family measures speedups against.
	SeqTruth bool
	// Intervals serves plain ground-truth runs from the
	// representative-interval engine (internal/interval): the reference
	// stream is captured once, clustered, and only cluster
	// representatives are simulated, so the resulting truth tables are
	// approximate (the exact engines remain the differential oracle —
	// see IntervalErrors for the error-bound report). Ignored when the
	// options pin runs to an exact engine (SeqTruth, Scalar, Sanitize,
	// or fault injection), and an individual workload outside the
	// capture preconditions falls back to the sequential engine.
	Intervals bool
	// IntervalRefs is the interval size in references for Intervals
	// runs; 0 sizes intervals adaptively from the captured trace.
	IntervalRefs int
	// IntervalClusters is the cluster count (representatives simulated)
	// for Intervals runs; 0 selects the engine default.
	IntervalClusters int
	// TruthWorkers is the worker count for the sharded ground-truth
	// engine; 0 selects GOMAXPROCS. Ignored when SeqTruth is set.
	TruthWorkers int
	// TruthCache, when non-nil, memoizes plain ground-truth runs across
	// the experiments of one invocation, keyed by application, budget,
	// and cache geometry: Table 1, Table 2, Figure 2, and the ablations
	// all need the same baseline runs, so each is simulated once.
	// Bypassed when fault injection is enabled (faults make run outcomes
	// attempt-dependent).
	TruthCache *TruthCache
	// Geometry is the simulated cache geometry for every run; the zero
	// value selects membottle.DefaultConfig().Cache. It joins both
	// memoization keys (TruthCache and Store), so geometry-varying runs
	// can never alias a cached result.
	Geometry cache.Config
	// Store, when non-nil, persists successful plain-run baselines and
	// completed experiment cells across invocations: lookups go
	// TruthCache (in-memory, single-flight) → Store (disk) → compute.
	// Bypassed, like the TruthCache, when fault injection is enabled.
	Store *store.Store

	// attempt is the current retry attempt for the cell being run; set
	// by forEachApp, it re-salts the fault injector's seed.
	attempt int
}

var defaultBudgets = map[string]uint64{
	"tomcatv":  130_000_000,
	"swim":     130_000_000,
	"su2cor":   170_000_000,
	"mgrid":    130_000_000,
	"applu":    130_000_000,
	"compress": 150_000_000,
	"ijpeg":    300_000_000,
	"figure2":  130_000_000,
}

// sparseMissApps have so much computation per reference that the quick
// preset lowers their sampling interval to keep a usable sample count.
var sparseMissApps = map[string]bool{"compress": true, "ijpeg": true}

// PaperApps is the paper's Table 1 application order.
func PaperApps() []string {
	return []string{"tomcatv", "swim", "su2cor", "mgrid", "applu", "compress", "ijpeg"}
}

func (o Options) withDefaults() Options {
	if len(o.Apps) == 0 {
		o.Apps = PaperApps()
	}
	if o.SearchN == 0 {
		o.SearchN = 10
	}
	if o.SearchInterval == 0 {
		o.SearchInterval = 8_000_000
	}
	return o
}

// budgetFor returns the application instruction budget for one app.
func (o Options) budgetFor(app string) uint64 {
	if o.Budget != 0 {
		return o.Budget
	}
	b, ok := defaultBudgets[app]
	if !ok {
		b = 130_000_000
	}
	if o.Paper {
		b *= 10
	}
	return b
}

// geometry returns the effective cache geometry: the option as given, or
// the engine default when zero — the same resolution membottle.NewSystem
// performs, computed here so memoization keys always hold the geometry
// the run actually uses.
func (o Options) geometry() cache.Config {
	if o.Geometry == (cache.Config{}) {
		return membottle.DefaultConfig().Cache
	}
	return o.Geometry
}

// sampleIntervalFor returns the sampling interval for one app.
func (o Options) sampleIntervalFor(app string) uint64 {
	if o.SampleInterval != 0 {
		return o.SampleInterval
	}
	if o.Paper {
		return 50_000
	}
	if sparseMissApps[app] {
		return 200
	}
	return 2_000
}
