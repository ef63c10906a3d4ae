package cache

import (
	"testing"

	"membottle/internal/mem"
)

// FuzzCacheConfig asserts the Validate/New contract: any geometry Validate
// accepts must construct without panicking and behave sanely under a burst
// of accesses, and any geometry Validate rejects must make New panic with
// that same error. Every accepted geometry also replays the burst through
// the offline sweeps — NewPartition(cfg, 0, 1).Sweep, the run-compacted
// burst through SweepRuns, and both again split over 2 shards when there
// are at least 2 sets — whose verdicts and Hits/Misses must match an
// Access-only pass. Sizes are capped so accepted configs cannot allocate
// unboundedly in the fuzz loop.
func FuzzCacheConfig(f *testing.F) {
	f.Add(2<<20, 64, 4)     // the paper's cache
	f.Add(64, 64, 1)        // single line, direct mapped
	f.Add(1<<20, 32, 1<<15) // fully associative
	f.Add(128, 64, 1)       // two sets, direct mapped
	f.Add(1<<16, 64, 8)     // 8-way
	f.Add(0, 0, 0)          // invalid: zeros
	f.Add(-64, 64, 4)       // invalid: negative size
	f.Add(96, 32, 1)        // invalid: size not a power of two
	f.Add(64, 128, 1)       // invalid: line larger than cache
	f.Add(1<<10, 64, 3)     // invalid: assoc does not divide lines
	f.Add(1<<10, 64, 1<<20) // invalid: assoc exceeds lines

	f.Fuzz(func(t *testing.T, size, lineSize, assoc int) {
		const maxSize = 1 << 22 // bound allocations, not validity
		if size > maxSize {
			size = (size % maxSize) + 1
		}
		cfg := Config{Size: size, LineSize: lineSize, Assoc: assoc}
		verr := cfg.Validate()

		var c *Cache
		panicked := func() (p bool) {
			defer func() {
				if recover() != nil {
					p = true
				}
			}()
			c = New(cfg)
			return
		}()

		if verr != nil {
			if !panicked {
				t.Fatalf("Validate rejected %+v (%v) but New constructed it", cfg, verr)
			}
			return
		}
		if panicked {
			t.Fatalf("Validate accepted %+v but New panicked", cfg)
		}

		// A validated geometry must survive accesses across the whole address
		// range without panicking, with coherent stats and residency.
		addrs := []mem.Addr{
			0, 1,
			mem.Addr(cfg.LineSize - 1), mem.Addr(cfg.LineSize),
			mem.Addr(cfg.Size - 1), mem.Addr(cfg.Size), mem.Addr(2 * cfg.Size),
			^mem.Addr(0), ^mem.Addr(0) - mem.Addr(cfg.LineSize),
			mem.Addr(uint64(cfg.Size) * 3 / 2),
		}
		for i, a := range addrs {
			c.Access(a, i%2 == 0)
		}
		refs := make([]mem.Ref, len(addrs))
		for i, a := range addrs {
			refs[i] = mem.Ref{Addr: a, Write: i%3 == 0}
		}
		for len(refs) > 0 {
			// AccessBatch always consumes at least one reference (the
			// first miss is processed, not returned), so this terminates.
			n, _, _ := c.AccessBatch(refs)
			if n < 1 {
				t.Fatalf("AccessBatch consumed %d refs of %d", n, len(refs))
			}
			refs = refs[n:]
		}

		total := uint64(2 * len(addrs))
		if got := c.Stats.Accesses(); got != total {
			t.Fatalf("stats account for %d accesses, want %d (%+v)", got, total, c.Stats)
		}
		if c.Stats.Hits+c.Stats.Misses != total {
			t.Fatalf("hits+misses = %d, want %d (%+v)", c.Stats.Hits+c.Stats.Misses, total, c.Stats)
		}
		lines := cfg.Size / cfg.LineSize
		if r := c.Resident(); r < 0 || r > lines {
			t.Fatalf("resident %d out of range [0,%d]", r, lines)
		}

		// The offline sweeps pack addresses (mem.PackRef, mem.PackRun), which
		// holds only for simulated addresses, below 2^40; the burst runs
		// twice so the second pass hits.
		var burst []mem.Ref
		for pass := 0; pass < 2; pass++ {
			for i, a := range addrs {
				burst = append(burst, mem.Ref{Addr: a & (1<<40 - 1), Write: i%2 == pass})
			}
		}
		ref := New(cfg)
		want := make([]bool, len(burst))
		for i, r := range burst {
			want[i] = ref.Access(r.Addr, r.Write)
		}
		runs := compactRuns(cfg, burst)
		for _, shards := range []int{1, 2} {
			if shards > lines/cfg.Assoc {
				break
			}
			parts := newShards(t, cfg, shards)
			got := sweepShards(parts, cfg, len(burst), burst)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%d shards: reference %d (%#x): Sweep says miss=%v, Access says miss=%v",
						shards, i, uint64(burst[i].Addr), got[i], want[i])
				}
			}
			if st := sumStats(parts); st != ref.Stats {
				t.Fatalf("%d shards: Sweep stats %+v, Access stats %+v", shards, st, ref.Stats)
			}
			checkImage(t, ref, parts)
			parts = newShards(t, cfg, shards)
			checkRunVerdicts(t, want, runs, sweepRunShards(parts, cfg, len(runs), burst, runs))
			checkImage(t, ref, parts)
			if st := sumStats(parts); st.Hits != ref.Stats.Hits || st.Misses != ref.Stats.Misses {
				t.Fatalf("%d shards: SweepRuns stats %+v, Access stats %+v", shards, st, ref.Stats)
			}
		}
	})
}
