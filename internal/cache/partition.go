package cache

import (
	"fmt"
	"math/bits"

	"membottle/internal/mem"
)

// Partition simulates the slice of a cache belonging to one shard of the
// sharded ground-truth engine. Under LRU, set-associative behaviour is
// exactly decomposable by set index — references mapping to different
// sets never interact — so partitioning the set space round-robin
// (set mod shards) and replaying each partition's reference subsequence
// through an independent Partition reproduces the full cache's hit/miss
// outcomes and statistics bit for bit.
//
// The Partition reuses the full cache's interleaved way layout (tag and
// LRU stamp side by side, whole 4-way sets on one host cache line) and
// the same victim-selection tie-break as Cache.Access/AccessBatch. Its
// clock advances only on its own references, which preserves relative LRU
// order within every set it owns.
type Partition struct {
	lineShift  uint
	setMask    uint64
	shardShift uint // log2(shards): global set >> shardShift = local set
	assoc      int

	ways  []way
	clock uint64

	Stats Stats
}

// NewPartition builds the sub-cache for one shard. shards must be a power
// of two no larger than the cache's set count, and shard must be in
// [0, shards); references routed to the partition must satisfy
// set(addr) mod shards == shard.
func NewPartition(cfg Config, shard, shards int) (*Partition, error) {
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
	return &Partition{
		lineShift:  uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setMask:    uint64(sets - 1),
		shardShift: uint(bits.TrailingZeros(uint(shards))),
		assoc:      cfg.Assoc,
		ways:       make([]way, sets/shards*cfg.Assoc),
	}, nil
}

// Sets returns the number of sets this partition owns.
func (p *Partition) Sets() int { return len(p.ways) / p.assoc }

// Access simulates one reference already routed to this partition and
// reports whether it missed, mirroring Cache.Access (same LRU update,
// same victim tie-break, same statistics).
func (p *Partition) Access(a mem.Addr, write bool) (miss bool) {
	if write {
		p.Stats.Writes++
	} else {
		p.Stats.Reads++
	}
	line := uint64(a) >> p.lineShift
	local := (line & p.setMask) >> p.shardShift
	base := int(local) * p.assoc
	p.clock++

	victim := base
	oldest := ^uint64(0)
	for i := base; i < base+p.assoc; i++ {
		if st := p.ways[i].stamp; st != 0 && p.ways[i].tag == line {
			p.ways[i].stamp = p.clock
			p.Stats.Hits++
			return false
		} else if st <= oldest {
			victim = i
			oldest = st
		}
	}
	p.Stats.Misses++
	p.ways[victim] = way{tag: line, stamp: p.clock}
	return true
}

// Flush invalidates every line the partition owns and leaves statistics
// intact, mirroring Cache.Flush. The clock keeps running: LRU decisions
// compare stamps relatively, so behaviour after a flush depends only on
// the references that follow it.
func (p *Partition) Flush() {
	for i := range p.ways {
		p.ways[i].stamp = 0
	}
}

// StateInto captures the partition's contents and statistics into s,
// reusing its Ways buffer when capacity allows — the same snapshot
// contract as Cache.StateInto, so a Partition built with shards=1 (a full
// cache) interoperates with checkpoint-style State holders. The
// representative-interval engine uses this to hand a warmed cache image
// from its warmup partition to its measurement partition without
// allocating per representative.
func (p *Partition) StateInto(s *State) {
	if cap(s.Ways) < len(p.ways) {
		s.Ways = make([]WayState, len(p.ways))
	}
	s.Ways = s.Ways[:len(p.ways)]
	for i, w := range p.ways {
		s.Ways[i] = WayState{Tag: w.tag, Stamp: w.stamp}
	}
	s.Clock = p.clock
	s.Stats = p.Stats
}

// SetState restores a snapshot taken by StateInto on a partition of the
// same geometry (same number of ways).
func (p *Partition) SetState(s State) error {
	if len(s.Ways) != len(p.ways) {
		return fmt.Errorf("cache: snapshot has %d ways, partition has %d", len(s.Ways), len(p.ways))
	}
	for i, w := range s.Ways {
		p.ways[i] = way{tag: w.Tag, stamp: w.Stamp}
	}
	p.clock = s.Clock
	p.Stats = s.Stats
	return nil
}

// Sweep simulates every packed reference (mem.PackRef form, all already
// routed to this partition) and appends the index of each miss to missIdx,
// returning the extended slice. Unlike Cache.AccessBatch it does not stop
// at the first miss — offline replay has no interrupts to deliver — so the
// whole chunk runs through one branch-light loop; the 4-way layout gets
// the same unrolled probe as the batched hot path.
func (p *Partition) Sweep(packed []uint64, missIdx []uint32) []uint32 {
	var hits, writes uint64
	clock := p.clock
	ways := p.ways
	shift, mask, shardShift := p.lineShift, p.setMask, p.shardShift
	if p.assoc == 4 {
		for i, pr := range packed {
			line := (pr >> 1) >> shift
			clock++
			base := int((line&mask)>>shardShift) * 4
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
		assoc := p.assoc
		for i, pr := range packed {
			line := (pr >> 1) >> shift
			clock++
			base := int((line&mask)>>shardShift) * assoc
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
	p.clock = clock
	misses := uint64(len(packed)) - hits
	p.Stats.Hits += hits
	p.Stats.Misses += misses
	p.Stats.Writes += writes
	p.Stats.Reads += uint64(len(packed)) - writes
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
func (p *Partition) SweepRuns(entries []uint64, missIdx []uint32) []uint32 {
	var hits, misses, refs uint64
	clock := p.clock
	ways := p.ways
	shift, mask, shardShift := p.lineShift, p.setMask, p.shardShift
	if p.assoc == 4 {
		for i, en := range entries {
			cnt := en&(mem.MaxRunLen-1) + 1
			refs += cnt
			line := (en >> mem.RunShift) >> shift
			clock++
			base := int((line&mask)>>shardShift) * 4
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
		assoc := p.assoc
		for i, en := range entries {
			cnt := en&(mem.MaxRunLen-1) + 1
			refs += cnt
			line := (en >> mem.RunShift) >> shift
			clock++
			base := int((line&mask)>>shardShift) * assoc
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
	p.clock = clock
	p.Stats.Hits += hits
	p.Stats.Misses += misses
	p.Stats.Reads += refs
	return missIdx
}
