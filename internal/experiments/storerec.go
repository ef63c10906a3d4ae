package experiments

import (
	"fmt"
	"math"

	"membottle"
	"membottle/internal/checkpoint"
	"membottle/internal/objmap"
	"membottle/internal/store"
	"membottle/internal/truth"
)

// This file defines the persistent-store record codecs and the disk tier
// of the three-level memoization path (TruthCache → store → compute).
// Two record kinds are persisted: plain-run ground-truth baselines
// (truth.Counter totals plus the run's Overhead) and completed
// experiment cells (one application's Table 1 or Table 2 block). Only
// successful results are ever stored; every failure path recomputes.
//
// Keys follow the truthKey discipline: a key holds what a caller can
// vary — app, budget, and for cells the stage, seed and sampling
// interval (which follows Paper mode and the app). Program constants
// (cache geometry, search width and initial interval, fixed sampling
// mode, cost model) stay out of the key; a change to any of them bumps
// store.SchemaVersion instead. Exact engine selection (scalar,
// sequential vs. sharded, worker count) is deliberately excluded because
// those engines are byte-identical by contract, enforced by the
// differential tests.

// storeEligible reports whether the persistent store may serve this run:
// a store must be attached and fault injection must be off (fault
// outcomes are attempt-dependent, and their artifacts must never be
// persisted as truth).
func storeEligible(opt Options) bool {
	return opt.Store != nil && opt.Faults == nil
}

// truthStoreKey is the content address of one plain-run baseline.
func truthStoreKey(app string, budget uint64) store.Key {
	b := store.NewKey(store.KindTruth)
	b.Str("app", app)
	b.U64("budget", budget)
	return b.Key()
}

// runPlainStored is the disk tier: consult the persistent store, and on
// a miss compute via runPlainUncached and persist the result. Callers
// reach it through runPlain or the TruthCache's single flight, so one
// process performs at most one store read per distinct baseline.
func runPlainStored(opt Options, app string, budget uint64) (*truth.Counter, membottle.Overhead, error) {
	if !storeEligible(opt) {
		return runPlainUncached(opt, app, budget)
	}
	key := truthStoreKey(app, budget)
	if payload, ok := opt.Store.Get(key); ok {
		t, ov, err := decodeTruthRecord(payload)
		if err == nil {
			return t, ov, nil
		}
		// A record that frames correctly but decodes inconsistently is
		// treated exactly like a corrupt one: recompute and overwrite.
	}
	t, ov, err := runPlainUncached(opt, app, budget)
	if err != nil {
		return nil, membottle.Overhead{}, err
	}
	if payload, err := encodeTruthRecord(t, ov); err == nil {
		// A failed write never fails the run: the store is a cache.
		_ = opt.Store.Put(key, payload)
	}
	return t, ov, nil
}

// --- truth baseline records ----------------------------------------------

// encodeTruthRecord serializes a truth counter and its run overhead. The
// counter's dense count vector is persisted together with an object
// table (ID, name, kind) for every object with a nonzero count — the
// only objects the reporting methods ever resolve — so the record is
// self-contained: decoding needs no re-simulation to rebuild names.
func encodeTruthRecord(t *truth.Counter, ov membottle.Overhead) ([]byte, error) {
	st, err := t.State()
	if err != nil {
		return nil, fmt.Errorf("experiments: truth record: %w", err)
	}
	var e checkpoint.Enc
	e.U64(uint64(len(st.Counts)))
	for _, c := range st.Counts {
		e.U64(c)
	}
	e.U64(st.Total)
	e.U64(st.Unmatched)

	ranked := t.Ranked()
	e.U64(uint64(len(ranked)))
	for _, r := range ranked {
		e.I64(int64(r.Object.ID))
		e.Str(r.Object.Name)
		e.I64(int64(r.Object.Kind))
	}
	encOverhead(&e, ov)
	return e.Take(), nil
}

// decodeTruthRecord rebuilds a detached truth counter from a stored
// baseline: a rehydrated object map (ID-indexed names, no address index)
// carrying the persisted counts. All consumers of plain-run truth
// resolve objects by ID or name only (Ranked, Misses, Pct, RankOf), so
// the detached counter is indistinguishable from a freshly simulated one
// on every reporting path.
func decodeTruthRecord(payload []byte) (*truth.Counter, membottle.Overhead, error) {
	d := checkpoint.NewDec(payload)
	counts := make([]uint64, d.Count(1))
	for i := range counts {
		counts[i] = d.U64()
	}
	total := d.U64()
	unmatched := d.U64()

	objects := make([]objmap.RehydratedObject, d.Count(3))
	for i := range objects {
		objects[i] = objmap.RehydratedObject{
			ID:   int(d.I64()),
			Name: d.Str(),
			Kind: objmap.Kind(d.I64()),
		}
	}

	ov := decOverhead(d)
	if err := d.Err(); err != nil {
		return nil, membottle.Overhead{}, fmt.Errorf("experiments: truth record: %w", err)
	}
	if d.Remaining() != 0 {
		return nil, membottle.Overhead{}, fmt.Errorf("experiments: truth record: %d trailing bytes", d.Remaining())
	}

	om, err := objmap.Rehydrate(len(counts), objects)
	if err != nil {
		return nil, membottle.Overhead{}, fmt.Errorf("experiments: truth record: %w", err)
	}
	t := truth.NewCounter(om)
	if err := t.SetState(truth.State{Counts: counts, Total: total, Unmatched: unmatched}); err != nil {
		return nil, membottle.Overhead{}, fmt.Errorf("experiments: truth record: %w", err)
	}
	return t, ov, nil
}

// --- experiment cell records ---------------------------------------------

// cellStoreKey is the content address of one completed experiment cell.
// stage discriminates the table family ("table1", "table2"); every
// option a caller can vary that reaches the cell's simulations joins the
// key.
func cellStoreKey(stage, app string, opt Options) store.Key {
	b := store.NewKey(store.KindCell)
	b.Str("stage", stage)
	b.Str("app", app)
	b.U64("budget", opt.budgetFor(app))
	b.U64("sample.interval", opt.sampleIntervalFor(app))
	b.I64("seed", opt.Seed)
	return b.Key()
}

// f64 encodes a float bit-exactly; the decoder mirrors it. Percentages
// must round-trip byte-identically so warm tables render identically.
func encF64(e *checkpoint.Enc, v float64) { e.U64(math.Float64bits(v)) }
func decF64(d *checkpoint.Dec) float64    { return math.Float64frombits(d.U64()) }

func encOverhead(e *checkpoint.Enc, ov membottle.Overhead) {
	e.U64(ov.Interrupts)
	e.U64(ov.HandlerCycles)
	e.U64(ov.TotalCycles)
	e.U64(ov.TotalMisses)
	e.U64(ov.AppInstructions)
}

func decOverhead(d *checkpoint.Dec) membottle.Overhead {
	var ov membottle.Overhead
	ov.Interrupts = d.U64()
	ov.HandlerCycles = d.U64()
	ov.TotalCycles = d.U64()
	ov.TotalMisses = d.U64()
	ov.AppInstructions = d.U64()
	return ov
}

// encodeTable1Record serializes one successful Table 1 cell. Failed
// cells (Err != nil) are never encoded.
func encodeTable1Record(r AppResult) []byte {
	var e checkpoint.Enc
	e.Str(r.App)
	e.U64(uint64(len(r.Rows)))
	for _, row := range r.Rows {
		e.Str(row.Object)
		e.I64(int64(row.ActualRank))
		encF64(&e, row.ActualPct)
		e.I64(int64(row.SampleRank))
		encF64(&e, row.SamplePct)
		e.I64(int64(row.SearchRank))
		encF64(&e, row.SearchPct)
	}
	e.U64(r.SampleCount)
	e.U64(r.SampleInterval)
	e.I64(int64(r.SearchIterations))
	e.Bool(r.SearchDone)
	e.Bool(r.SearchConverged)
	encOverhead(&e, r.SampleOverhead)
	encOverhead(&e, r.SearchOverhead)
	encOverhead(&e, r.PlainOverhead)
	return e.Take()
}

func decodeTable1Record(payload []byte, app string) (AppResult, error) {
	d := checkpoint.NewDec(payload)
	var r AppResult
	r.App = d.Str()
	rows := make([]Table1Row, d.Count(7))
	for i := range rows {
		rows[i] = Table1Row{
			Object:     d.Str(),
			ActualRank: int(d.I64()),
			ActualPct:  decF64(d),
			SampleRank: int(d.I64()),
			SamplePct:  decF64(d),
			SearchRank: int(d.I64()),
			SearchPct:  decF64(d),
		}
	}
	if len(rows) > 0 {
		r.Rows = rows
	}
	r.SampleCount = d.U64()
	r.SampleInterval = d.U64()
	r.SearchIterations = int(d.I64())
	r.SearchDone = d.Bool()
	r.SearchConverged = d.Bool()
	r.SampleOverhead = decOverhead(d)
	r.SearchOverhead = decOverhead(d)
	r.PlainOverhead = decOverhead(d)
	if err := d.Err(); err != nil {
		return AppResult{}, fmt.Errorf("experiments: table1 record: %w", err)
	}
	if d.Remaining() != 0 {
		return AppResult{}, fmt.Errorf("experiments: table1 record: %d trailing bytes", d.Remaining())
	}
	if r.App != app {
		return AppResult{}, fmt.Errorf("experiments: table1 record: app %q, want %q", r.App, app)
	}
	return r, nil
}

// encodeTable2Record serializes one successful Table 2 cell.
func encodeTable2Record(r Table2AppResult) []byte {
	var e checkpoint.Enc
	e.Str(r.App)
	e.U64(uint64(len(r.Rows)))
	for _, row := range r.Rows {
		e.Str(row.Object)
		e.I64(int64(row.ActualRank))
		encF64(&e, row.ActualPct)
		e.I64(int64(row.TwoWayRank))
		encF64(&e, row.TwoWayPct)
		e.I64(int64(row.TenWayRank))
		encF64(&e, row.TenWayPct)
	}
	e.I64(int64(r.TwoWayIterations))
	e.I64(int64(r.TenWayIterations))
	e.Bool(r.TwoWayDone)
	e.Bool(r.TenWayDone)
	e.Bool(r.TwoWayFoundTop)
	e.Bool(r.TenWayFoundTop)
	return e.Take()
}

func decodeTable2Record(payload []byte, app string) (Table2AppResult, error) {
	d := checkpoint.NewDec(payload)
	var r Table2AppResult
	r.App = d.Str()
	rows := make([]Table2Row, d.Count(7))
	for i := range rows {
		rows[i] = Table2Row{
			Object:     d.Str(),
			ActualRank: int(d.I64()),
			ActualPct:  decF64(d),
			TwoWayRank: int(d.I64()),
			TwoWayPct:  decF64(d),
			TenWayRank: int(d.I64()),
			TenWayPct:  decF64(d),
		}
	}
	if len(rows) > 0 {
		r.Rows = rows
	}
	r.TwoWayIterations = int(d.I64())
	r.TenWayIterations = int(d.I64())
	r.TwoWayDone = d.Bool()
	r.TenWayDone = d.Bool()
	r.TwoWayFoundTop = d.Bool()
	r.TenWayFoundTop = d.Bool()
	if err := d.Err(); err != nil {
		return Table2AppResult{}, fmt.Errorf("experiments: table2 record: %w", err)
	}
	if d.Remaining() != 0 {
		return Table2AppResult{}, fmt.Errorf("experiments: table2 record: %d trailing bytes", d.Remaining())
	}
	if r.App != app {
		return Table2AppResult{}, fmt.Errorf("experiments: table2 record: app %q, want %q", r.App, app)
	}
	return r, nil
}

// loadTable1Cell returns a stored Table 1 cell for (app, opt), if any.
func loadTable1Cell(app string, opt Options) (AppResult, bool) {
	if !storeEligible(opt) {
		return AppResult{}, false
	}
	payload, ok := opt.Store.Get(cellStoreKey("table1", app, opt))
	if !ok {
		return AppResult{}, false
	}
	r, err := decodeTable1Record(payload, app)
	if err != nil {
		return AppResult{}, false
	}
	return r, true
}

// saveTable1Cell persists a successful Table 1 cell; failures to write
// are ignored (the store is a cache).
func saveTable1Cell(app string, opt Options, r AppResult) {
	if !storeEligible(opt) || r.Err != nil {
		return
	}
	_ = opt.Store.Put(cellStoreKey("table1", app, opt), encodeTable1Record(r))
}

// loadTable2Cell returns a stored Table 2 cell for (app, opt), if any.
func loadTable2Cell(app string, opt Options) (Table2AppResult, bool) {
	if !storeEligible(opt) {
		return Table2AppResult{}, false
	}
	payload, ok := opt.Store.Get(cellStoreKey("table2", app, opt))
	if !ok {
		return Table2AppResult{}, false
	}
	r, err := decodeTable2Record(payload, app)
	if err != nil {
		return Table2AppResult{}, false
	}
	return r, true
}

// saveTable2Cell persists a successful Table 2 cell.
func saveTable2Cell(app string, opt Options, r Table2AppResult) {
	if !storeEligible(opt) || r.Err != nil {
		return
	}
	_ = opt.Store.Put(cellStoreKey("table2", app, opt), encodeTable2Record(r))
}
