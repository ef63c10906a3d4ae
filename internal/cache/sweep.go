package cache

import (
	"fmt"

	"membottle/internal/mem"
)

// NewPartition builds the cache for one shard of the set-sharded
// engines. Under LRU, set-associative behaviour is exactly decomposable
// by set index — references mapping to different sets never interact —
// so partitioning the set space round-robin (set mod shards) and
// replaying each partition's reference subsequence through an
// independent cache reproduces the full cache's hit/miss outcomes and
// statistics bit for bit.
//
// A partition is a whole Cache of cfg's geometry that only ever receives
// references to its own sets: it indexes sets exactly as the full cache
// does, and the sets it never sees stay invalid. Its clock advances only
// on its own references, which preserves relative LRU order within every
// set it owns. shards must be a power of two no larger than the cache's
// set count, and shard must be in [0, shards); references routed to the
// partition must satisfy set(addr) mod shards == shard.
func NewPartition(cfg Config, shard, shards int) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Size / cfg.LineSize / cfg.Assoc
	if shards < 1 || shards&(shards-1) != 0 || shards > sets {
		return nil, fmt.Errorf("cache: shard count %d not a power of two in [1,%d]", shards, sets)
	}
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("cache: shard %d out of range [0,%d)", shard, shards)
	}
	return New(cfg), nil
}

// Sweep simulates every packed reference (mem.PackRef form) and appends
// the index of each miss to missIdx, returning the extended slice. Unlike
// AccessBatch it does not stop at the first miss — offline replay has no
// interrupts to deliver — so the whole chunk runs through one
// branch-light loop; the 4-way layout gets the same unrolled probe as the
// batched hot path.
func (c *Cache) Sweep(packed []uint64, missIdx []uint32) []uint32 {
	var hits, writes uint64
	clock := c.clock
	ways := c.ways
	shift, mask := c.lineShift, c.setMask
	if c.assoc == 4 {
		for i, pr := range packed {
			line := (pr >> 1) >> shift
			clock++
			base := int(line&mask) * 4
			s := ways[base : base+4 : base+4]
			var e *way
			switch {
			case s[0].tag == line && s[0].stamp != 0:
				e = &s[0]
			case s[1].tag == line && s[1].stamp != 0:
				e = &s[1]
			case s[2].tag == line && s[2].stamp != 0:
				e = &s[2]
			case s[3].tag == line && s[3].stamp != 0:
				e = &s[3]
			default:
				// Miss: fill the LRU way with the same <= tie-break chain as
				// Cache.Access (live stamps are unique, so <= only decides
				// among invalid ways).
				vi, oldest := 0, s[0].stamp
				if s[1].stamp <= oldest {
					vi, oldest = 1, s[1].stamp
				}
				if s[2].stamp <= oldest {
					vi, oldest = 2, s[2].stamp
				}
				if s[3].stamp <= oldest {
					vi = 3
				}
				s[vi] = way{tag: line, stamp: clock}
				writes += pr & 1
				missIdx = append(missIdx, uint32(i))
				continue
			}
			e.stamp = clock
			hits++
			writes += pr & 1
		}
	} else {
		assoc := c.assoc
		for i, pr := range packed {
			line := (pr >> 1) >> shift
			clock++
			base := int(line&mask) * assoc
			victim, oldest := base, ^uint64(0)
			hit := -1
			for j := base; j < base+assoc; j++ {
				if st := ways[j].stamp; st != 0 && ways[j].tag == line {
					hit = j
					break
				} else if st <= oldest {
					victim, oldest = j, st
				}
			}
			if hit < 0 {
				ways[victim] = way{tag: line, stamp: clock}
				writes += pr & 1
				missIdx = append(missIdx, uint32(i))
				continue
			}
			ways[hit].stamp = clock
			hits++
			writes += pr & 1
		}
	}
	c.clock = clock
	misses := uint64(len(packed)) - hits
	c.Stats.Hits += hits
	c.Stats.Misses += misses
	c.Stats.Writes += writes
	c.Stats.Reads += uint64(len(packed)) - writes
	return missIdx
}

// SweepRuns simulates a run-compacted reference stream (mem.PackRun
// form) and appends the index of each missing entry to missIdx,
// returning the extended slice. Each entry is one probe: only a run's
// first reference can miss, and the remaining touches of the run are
// hits that cannot change relative LRU order (see mem.PackRun), so one
// stamp update per run reproduces the full per-reference sweep's miss
// outcomes exactly. The clock advances per run rather than per
// reference, which preserves the relative stamp order LRU compares.
// Statistics: Hits and Misses count references exactly; the read/write
// split is not represented in run form, so every reference is tallied
// under Reads — run-compacted callers track the true split themselves.
func (c *Cache) SweepRuns(entries []uint64, missIdx []uint32) []uint32 {
	var hits, misses, refs uint64
	clock := c.clock
	ways := c.ways
	shift, mask := c.lineShift, c.setMask
	if c.assoc == 4 {
		for i, en := range entries {
			cnt := en&(mem.MaxRunLen-1) + 1
			refs += cnt
			line := (en >> mem.RunShift) >> shift
			clock++
			base := int(line&mask) * 4
			s := ways[base : base+4 : base+4]
			var e *way
			switch {
			case s[0].tag == line && s[0].stamp != 0:
				e = &s[0]
			case s[1].tag == line && s[1].stamp != 0:
				e = &s[1]
			case s[2].tag == line && s[2].stamp != 0:
				e = &s[2]
			case s[3].tag == line && s[3].stamp != 0:
				e = &s[3]
			default:
				vi, oldest := 0, s[0].stamp
				if s[1].stamp <= oldest {
					vi, oldest = 1, s[1].stamp
				}
				if s[2].stamp <= oldest {
					vi, oldest = 2, s[2].stamp
				}
				if s[3].stamp <= oldest {
					vi = 3
				}
				s[vi] = way{tag: line, stamp: clock}
				misses++
				hits += cnt - 1
				missIdx = append(missIdx, uint32(i))
				continue
			}
			e.stamp = clock
			hits += cnt
		}
	} else {
		assoc := c.assoc
		for i, en := range entries {
			cnt := en&(mem.MaxRunLen-1) + 1
			refs += cnt
			line := (en >> mem.RunShift) >> shift
			clock++
			base := int(line&mask) * assoc
			victim, oldest := base, ^uint64(0)
			hit := -1
			for j := base; j < base+assoc; j++ {
				if st := ways[j].stamp; st != 0 && ways[j].tag == line {
					hit = j
					break
				} else if st <= oldest {
					victim, oldest = j, st
				}
			}
			if hit < 0 {
				ways[victim] = way{tag: line, stamp: clock}
				misses++
				hits += cnt - 1
				missIdx = append(missIdx, uint32(i))
				continue
			}
			ways[hit].stamp = clock
			hits += cnt
		}
	}
	c.clock = clock
	c.Stats.Hits += hits
	c.Stats.Misses += misses
	c.Stats.Reads += refs
	return missIdx
}
