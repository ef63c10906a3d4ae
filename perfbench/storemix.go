package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"membottle/internal/experiments"
	"membottle/internal/store"
)

const (
	// recordsPerConfig is the number of records one configuration puts in
	// the store, measured: on an empty store, mbtables -table 1 then
	// -table 2 over the seven paper apps write 21 records (seven Table 1
	// cells, seven truth baselines, seven Table 2 cells).
	recordsPerConfig = 21
	// storeConfigs is the number of configurations the store holds. It is
	// assumed, not measured: 8 seeds x 4 budgets x 3 engine settings (the
	// default, -paper and -intervals).
	storeConfigs = 96
	// storeEntries is the live entry count the store holds through the
	// run. Every Put scans them all to enforce the size cap, so Put's cost
	// rests on the assumed configuration count.
	storeEntries = recordsPerConfig * storeConfigs
	// storeBatch is the number of operations in one timed pass, and
	// storePuts how many of them are writes of new keys, at positions the
	// seed shuffles. The 3:1 read:write mix is one configuration's
	// lifetime, from the store counters of the same mbtables runs: the
	// cold -table 1 and -table 2 runs write 21 records and read 7 (the
	// baselines Table 2 shares), and each warm re-run of both reads 14.
	// Four warm re-runs, an assumed count, give 63 reads to 21 writes.
	// A fixed count keeps pass times comparable.
	storeBatch = 48
	storePuts  = 12
	// verifyPuts is how many of the most recent writes are read back and
	// compared after the measured section; older ones may be evicted.
	verifyPuts = 50
)

// storeMix is the store-mixed workload: one goroutine issuing warm
// Table1App reads and Puts of new keys back to back against a store
// that sits at its size cap, so every Put evicts about one entry and the
// entry count stays at storeEntries.
type storeMix struct {
	w      workload
	seed   int64
	dir    string
	st     *store.Store
	opt    experiments.Options // reads through st
	oracle map[string]experiments.AppResult
	refs   map[string]float64 // simulated references one cell covers
	sizes  []int              // payload sizes of the real records
	rng    *rand.Rand
	nput   uint64
	recent []putRec

	// reads and putFails are the last pass's outputs, for check.
	reads    []read
	putFails int
	// getSecs and putSecs are the last pass's per-operation latencies by
	// kind, for the traced run.
	getSecs, putSecs []float64
}

// read is one warm read's output.
type read struct {
	app string
	r   experiments.AppResult
	err error
}

type putRec struct {
	key     store.Key
	payload []byte
}

func newStoreMix(w workload, seed int64, scratch string) (*storeMix, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, "store-")
	if err != nil {
		return nil, err
	}
	j := &storeMix{
		w:      w,
		seed:   seed,
		dir:    dir,
		oracle: map[string]experiments.AppResult{},
		refs:   map[string]float64{},
		rng:    rand.New(rand.NewSource(seed)),
	}
	if err := j.fill(); err != nil {
		j.close()
		return nil, err
	}
	return j, nil
}

// fill builds the store: real Table 1 cells and their baselines, filler
// records of real record sizes up to storeEntries, then a cap at the
// filled size. It also computes the exact engines' cells to check reads
// against.
func (j *storeMix) fill() error {
	unbounded, err := store.Open(j.dir, store.Options{MaxBytes: -1})
	if err != nil {
		return err
	}
	opt := j.w.options(j.seed)
	opt.Store = unbounded
	if _, err := experiments.Table1(opt); err != nil {
		return fmt.Errorf("populate: %w", err)
	}
	recs, err := recordSizes(j.dir)
	if err != nil {
		return err
	}
	before, err := unbounded.Size()
	if err != nil {
		return err
	}
	if err := unbounded.Put(j.key("framing", 0), nil); err != nil {
		return err
	}
	after, err := unbounded.Size()
	if err != nil {
		return err
	}
	for _, n := range recs {
		j.sizes = append(j.sizes, n-int(after-before))
	}
	have, err := unbounded.Len()
	if err != nil {
		return err
	}
	for i := have; i < storeEntries; i++ {
		if err := unbounded.Put(j.key("filler", uint64(i)), j.payload()); err != nil {
			return err
		}
	}
	size, err := unbounded.Size()
	if err != nil {
		return err
	}
	if j.st, err = store.Open(j.dir, store.Options{MaxBytes: size}); err != nil {
		return err
	}
	j.opt = j.w.options(j.seed)
	j.opt.Store = j.st

	oracle, err := experiments.Table1(oracleOptions(j.w.options(j.seed)))
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	for _, r := range oracle {
		j.oracle[r.App] = r
		n, err := appRefs(r.App, j.w.budget)
		if err != nil {
			return err
		}
		j.refs[r.App] = 3 * float64(n)
	}
	// One read of every cell makes the cells fresher than every filler,
	// so eviction takes fillers and old writes first.
	for _, app := range j.w.apps {
		if err := j.checkRead(j.get(app)); err != nil {
			return err
		}
	}
	return nil
}

// recordSizes lists the sizes of the record files under dir.
func recordSizes(dir string) ([]int, error) {
	var sizes []int
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		sizes = append(sizes, int(info.Size()))
		return nil
	})
	if err == nil && len(sizes) == 0 {
		err = fmt.Errorf("populate: no records in %s", dir)
	}
	return sizes, err
}

// key names one benchmark-written record; the seed keeps runs with
// different seeds from sharing keys.
func (j *storeMix) key(role string, n uint64) store.Key {
	return store.NewKey(store.KindCell).Str("perfbench", role).I64("seed", j.seed).U64("n", n).Key()
}

// payload draws filler bytes of one of the real records' payload sizes.
func (j *storeMix) payload() []byte {
	p := make([]byte, j.sizes[j.rng.Intn(len(j.sizes))])
	j.rng.Read(p)
	return p
}

// get is one warm read: the Table 1 cell served from the store.
func (j *storeMix) get(app string) (rd read) {
	rd.app = app
	defer func() {
		if p := recover(); p != nil {
			rd.err = fmt.Errorf("table1 %s panicked: %v", app, p)
		}
	}()
	rd.r, rd.err = experiments.Table1App(app, j.opt)
	return rd
}

// checkRead compares a read's cell with the exact engines' cell.
func (j *storeMix) checkRead(rd read) error {
	if rd.err == nil && !reflect.DeepEqual(rd.r, j.oracle[rd.app]) {
		return fmt.Errorf("table1 %s: served cell differs from the exact engines' cell", rd.app)
	}
	return rd.err
}

func (j *storeMix) inputs() int { return 1 }

func (j *storeMix) pass() passStats {
	var ps passStats
	j.reads, j.putFails = j.reads[:0], 0
	j.getSecs, j.putSecs = j.getSecs[:0], j.putSecs[:0]
	for _, k := range j.rng.Perm(storeBatch) {
		if k < storePuts {
			rec := putRec{key: j.key("put", j.nput), payload: j.payload()}
			j.nput++
			t := time.Now()
			err := j.st.Put(rec.key, rec.payload)
			d := time.Since(t).Seconds()
			j.putSecs = append(j.putSecs, d)
			ps.opSecs = append(ps.opSecs, d)
			if err != nil {
				j.putFails++
				continue
			}
			j.recent = append(j.recent, rec)
			if len(j.recent) > verifyPuts {
				j.recent = j.recent[1:]
			}
			continue
		}
		app := j.w.apps[j.rng.Intn(len(j.w.apps))]
		t := time.Now()
		rd := j.get(app)
		d := time.Since(t).Seconds()
		j.getSecs = append(j.getSecs, d)
		ps.opSecs = append(ps.opSecs, d)
		j.reads = append(j.reads, rd)
	}
	return ps
}

// check counts failed writes and reads whose cell differs from the
// exact engines'.
func (j *storeMix) check(ps *passStats) {
	ps.ops, ps.failed = storeBatch, j.putFails
	for _, rd := range j.reads {
		if j.checkRead(rd) != nil {
			ps.failed++
			continue
		}
		ps.refs += j.refs[rd.app]
		ps.errPP = max(ps.errPP, table1ErrPP([]experiments.AppResult{rd.r}))
	}
}

// verify reads back the most recent writes, which the cap cannot have
// evicted yet, and counts those that are missing or altered.
func (j *storeMix) verify() int {
	failed := 0
	for _, rec := range j.recent {
		got, ok := j.st.Get(rec.key)
		if !ok || !bytes.Equal(got, rec.payload) {
			failed++
		}
	}
	return failed
}

func (j *storeMix) details() []string {
	var cells []experiments.AppResult
	for _, app := range j.w.apps {
		cells = append(cells, j.oracle[app])
	}
	n, _ := j.st.Len()
	return append(table1Details(cells), fmt.Sprintf("store_entries %d count", n))
}

func (j *storeMix) close() error {
	return os.RemoveAll(j.dir)
}
