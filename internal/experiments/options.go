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
	"membottle/internal/store"
)

// Options controls an experiment run.
type Options struct {
	// Apps to evaluate; defaults to the paper's seven SPEC95 workloads.
	Apps []string
	// Budget is the per-run application instruction budget; 0 selects a
	// per-app default sized so every technique sees enough misses.
	Budget uint64
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
	// TruthWorkers is the worker count for the sharded ground-truth
	// engine; 0 selects GOMAXPROCS. Ignored when SeqTruth is set.
	TruthWorkers int
	// TruthCache, when non-nil, memoizes plain ground-truth runs across
	// the experiments of one invocation, keyed by application and
	// budget: Table 1, Table 2, Figure 2, the ablations and the interval
	// report all need the same baseline runs, so each is simulated once.
	// Bypassed when fault injection is enabled (faults make run outcomes
	// attempt-dependent).
	TruthCache *TruthCache
	// Store, when non-nil, persists successful plain-run baselines and
	// completed experiment cells across invocations: lookups go
	// TruthCache (in-memory, single-flight) → Store (disk) → compute.
	// Bypassed, like the TruthCache, when fault injection is enabled.
	Store *store.Store

	// attempt is the current retry attempt for the cell being run; set
	// by forEachApp, it re-salts the fault injector's seed.
	attempt int
}

// The search's program constants: ten region counters, as on the
// paper's machine, and an initial iteration length of 8M cycles. Every
// run uses the default cache geometry (membottle.DefaultConfig). A change
// to any of them changes stored results, so it bumps store.SchemaVersion.
const (
	searchN        = 10
	searchInterval = 8_000_000
)

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

// sampleIntervalFor returns Table 1's misses-between-samples for one
// app: 2,000 for the dense-miss FP codes, 200 for the sparse-miss
// compress and ijpeg, and the paper's 50,000 in Paper mode. Table 1
// samples at a fixed interval, as the paper's did (which is what exposed
// the tomcatv resonance).
func (o Options) sampleIntervalFor(app string) uint64 {
	if o.Paper {
		return 50_000
	}
	if sparseMissApps[app] {
		return 200
	}
	return 2_000
}
