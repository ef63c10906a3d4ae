package cache

import (
	"math/rand"
	"reflect"
	"testing"

	"membottle/internal/mem"
)

// TestAccessRunMatchesAccess is AccessRun's property test: one AccessRun
// of n references, plus the re-probe of the rest after a miss, leaves the
// cache exactly as n Access calls to the same line do — same clock, LRU
// stamps, statistics and snapshot — on every geometry the machine uses,
// with invalid ways in play (a cold cache, and periodic flushes).
func TestAccessRunMatchesAccess(t *testing.T) {
	for _, assoc := range []int{1, 2, 4, 8} {
		cfg := Config{Size: 4 << 10, LineSize: 64, Assoc: assoc}
		rng := rand.New(rand.NewSource(int64(assoc)))
		run, ref := New(cfg), New(cfg)
		lines := uint64(3 * cfg.Size / cfg.LineSize) // conflict and capacity misses
		for op := 0; op < 20_000; op++ {
			if op%2_000 == 1_999 {
				run.Flush()
				ref.Flush()
			}
			a := mem.Addr(rng.Uint64()%lines*uint64(cfg.LineSize) + rng.Uint64()%uint64(cfg.LineSize))
			write := rng.Intn(2) == 0
			var n uint64
			switch rng.Intn(3) {
			case 0:
				n = 1
			case 1:
				n = mem.MaxRunLen
			default:
				n = 1 + rng.Uint64()%mem.MaxRunLen
			}

			wantMiss := ref.Access(a, write)
			for i := uint64(1); i < n; i++ {
				if ref.Access(a, write) {
					t.Fatalf("assoc %d op %d: Access missed on a repeat of the line just touched", assoc, op)
				}
			}
			done, missed := run.AccessRun(a, n, write)
			if missed != wantMiss {
				t.Fatalf("assoc %d op %d: AccessRun missed=%v, Access missed=%v", assoc, op, missed, wantMiss)
			}
			if missed {
				if done != 1 {
					t.Fatalf("assoc %d op %d: a miss consumed %d references, want 1", assoc, op, done)
				}
				if n > 1 {
					// The machine probes the rest of the line again.
					done, missed = run.AccessRun(a, n-1, write)
					if missed || done != n-1 {
						t.Fatalf("assoc %d op %d: re-probe = (%d,%v), want (%d,false)", assoc, op, done, missed, n-1)
					}
				}
			} else if done != n {
				t.Fatalf("assoc %d op %d: a hit consumed %d of %d references", assoc, op, done, n)
			}
			if run.clock != ref.clock || run.Stats != ref.Stats {
				t.Fatalf("assoc %d op %d: clock/stats %d %+v, Access gives %d %+v",
					assoc, op, run.clock, run.Stats, ref.clock, ref.Stats)
			}
			if op%97 == 0 && !reflect.DeepEqual(run.State(), ref.State()) {
				t.Fatalf("assoc %d op %d: snapshots differ", assoc, op)
			}
		}
		if !reflect.DeepEqual(run.State(), ref.State()) {
			t.Fatalf("assoc %d: final snapshots differ", assoc)
		}
		if run.Stats.Misses == 0 || run.Stats.Hits == 0 {
			t.Fatalf("assoc %d: stream did not mix hits and misses: %+v", assoc, run.Stats)
		}
	}
}
