package interval_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"membottle/internal/interval"
	"membottle/internal/machine"
	"membottle/internal/mem"
	"membottle/internal/workload"
)

// poisonEntry is a full-length run at an address below the data segment,
// which no object covers. A stale entry that reached a result would add
// MaxRunLen unmatched references for every read of it.
var poisonEntry = mem.PackRun(0x40_0000, mem.MaxRunLen)

// cancelAt cancels its run's context once the machine has executed at
// least at application instructions, so the run stops mid-capture.
type cancelAt struct {
	machine.Workload
	at     uint64
	cancel context.CancelFunc
}

func (w *cancelAt) Step(m *machine.Machine) {
	w.Workload.Step(m)
	if m.AppInsts >= w.at {
		w.cancel()
	}
}

// TestRecycledBlocksNeverLeak checks that trace-store blocks recycled
// from earlier runs, which are never zeroed, cannot reach a result: a
// run over poisoned free blocks renders exactly like a run whose free
// list started empty, and so does a run after one that was cancelled
// mid-capture. The cancelled run must also hand every block it took
// back to the free list.
func TestRecycledBlocksNeverLeak(t *testing.T) {
	const budget = 10_000_000
	const poisoned = 4
	cfg := interval.Config{Seed: 3}
	for _, app := range []string{"mgrid", "compress"} {
		t.Run(app, func(t *testing.T) {
			interval.FillFreeBlocks(0, 0)
			want := renderResult(estimate(t, app, budget, cfg))

			interval.FillFreeBlocks(poisoned, poisonEntry)
			if got := renderResult(estimate(t, app, budget, cfg)); got != want {
				t.Errorf("run over poisoned free blocks diverges\nwant:\n%s\ngot:\n%s", want, got)
			}

			interval.FillFreeBlocks(poisoned, poisonEntry)
			w, err := workload.New(app)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err = interval.Run(ctx, &cancelAt{Workload: w, at: 2 * budget, cancel: cancel}, 3*budget, cfg)
			var ce *machine.CancelledError
			if !errors.As(err, &ce) {
				t.Fatalf("cancelled run returned %v, want a CancelledError", err)
			}
			if n := interval.FreeBlocks(); n != poisoned {
				t.Errorf("free list holds %d blocks after the cancelled run, want all %d back", n, poisoned)
			}
			if got := renderResult(estimate(t, app, budget, cfg)); got != want {
				t.Errorf("run after a cancelled run diverges\nwant:\n%s\ngot:\n%s", want, got)
			}
		})
	}
}

// TestConcurrentRunsShareFreeList runs four cells concurrently, several
// times each, so their trace stores trade blocks through the one free list
// while other runs' representative workers still read theirs. Every
// result must render exactly as the cell's sequential run does; under
// -race a block released while still being read also trips the
// detector.
func TestConcurrentRunsShareFreeList(t *testing.T) {
	cells := []struct {
		app    string
		budget uint64
	}{
		{"mgrid", 2_000_000},
		{"tomcatv", 10_000_000},
		{"swim", 2_000_000},
		{"compress", 2_000_000},
	}
	// Every run starts by taking a free block, so more short runs give a
	// block released too early more chances to be taken while it is
	// still being read.
	const runsPerCell = 8
	cfg := interval.Config{Seed: 3, Workers: 4}
	want := make([]string, len(cells))
	for i, c := range cells {
		want[i] = renderResult(estimate(t, c.app, c.budget, cfg))
	}
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < runsPerCell; rep++ {
				w, err := workload.New(c.app)
				if err != nil {
					t.Error(err)
					return
				}
				res, err := interval.Run(nil, w, c.budget, cfg)
				if err != nil {
					t.Errorf("%s: %v", c.app, err)
					return
				}
				if got := renderResult(res); got != want[i] {
					t.Errorf("%s run %d diverges from its sequential run\nwant:\n%s\ngot:\n%s", c.app, rep, want[i], got)
				}
			}
		}()
	}
	wg.Wait()
}
