package cache

import "membottle/internal/mem"

// AccessBatch simulates consecutive references through the first miss. It
// is the cache half of the batched hot path: hits are processed in a
// branch-light loop that updates LRU state and statistics exactly as
// per-reference Access calls would, and the first missing reference (if
// any) is processed too — victim selection, fill, and miss statistics —
// so the caller never re-probes the set; it only owes the miss its
// machine-side bookkeeping (miss latency, PMU counters, interrupt
// delivery).
//
// It returns the number of references consumed, the summed Compute
// payloads of the hits, and whether the last consumed reference missed.
// The missed reference's own Compute payload is never included: the
// machine charges it after the miss bookkeeping, where an interrupt may
// be delivered first, exactly as in scalar execution. A batched run and a
// scalar run of the same reference stream leave the cache in
// bit-identical state: same tags, same LRU stamps, same statistics.
func (c *Cache) AccessBatch(refs []mem.Ref) (int, uint64, bool) {
	var (
		hits    uint64
		writes  uint64
		compute uint64
		missed  bool
	)
	clock := c.clock
	ways := c.ways
	shift, mask, assoc := c.lineShift, c.setMask, c.assoc
	n := 0
	if assoc == 4 {
		// The paper's evaluation geometry: the whole set is one 64-byte
		// host cache line, probed with an unrolled tag compare.
	loop4:
		for ; n < len(refs); n++ {
			r := &refs[n]
			line := uint64(r.Addr) >> shift
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
				// Miss: fill the LRU way. The unrolled <= chain reproduces
				// Access's victim scan, including its last-invalid-way
				// tie-break (live stamps are unique, so <= only decides
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
				if r.Write {
					writes++
				}
				n++
				missed = true
				break loop4
			}
			e.stamp = clock
			hits++
			if r.Write {
				writes++
			}
			compute += r.Compute
		}
	} else {
	loop:
		for ; n < len(refs); n++ {
			r := &refs[n]
			line := uint64(r.Addr) >> shift
			base := int(line&mask) * assoc
			clock++
			victim, oldest := base, ^uint64(0)
			hit := -1
			for i := base; i < base+assoc; i++ {
				if st := ways[i].stamp; st != 0 && ways[i].tag == line {
					hit = i
					break
				} else if st <= oldest {
					victim, oldest = i, st
				}
			}
			if hit < 0 {
				ways[victim] = way{tag: line, stamp: clock}
				if r.Write {
					writes++
				}
				n++
				missed = true
				break loop
			}
			ways[hit].stamp = clock
			hits++
			if r.Write {
				writes++
			}
			compute += r.Compute
		}
	}
	c.clock = clock
	reads := uint64(n) - writes
	c.Stats.Hits += hits
	c.Stats.Writes += writes
	c.Stats.Reads += reads
	if missed {
		c.Stats.Misses++
	}
	return n, compute, missed
}

// AccessRun simulates n >= 1 consecutive references to the line holding
// a with one probe. Only the first reference of a same-line run can miss
// (see mem.PackRun), so on a hit it consumes all n: the clock advances
// by n, the way's stamp becomes the final clock, and Hits and
// Reads/Writes rise by n, exactly as n Access calls would leave them. On
// a miss it consumes only the first reference, filling the victim with
// Access's <= tie-break, and returns (1, true): the caller owes that miss
// its machine-side bookkeeping before probing the rest of the run again.
func (c *Cache) AccessRun(a mem.Addr, n uint64, write bool) (done uint64, missed bool) {
	line := uint64(a) >> c.lineShift
	base := int(line&c.setMask) * c.assoc
	s := c.ways[base : base+c.assoc : base+c.assoc]
	victim, oldest := 0, ^uint64(0)
	for i := range s {
		if st := s[i].stamp; st != 0 && s[i].tag == line {
			c.clock += n
			s[i].stamp = c.clock
			c.Stats.Hits += n
			if write {
				c.Stats.Writes += n
			} else {
				c.Stats.Reads += n
			}
			return n, false
		} else if st <= oldest {
			victim, oldest = i, st
		}
	}
	c.clock++
	s[victim] = way{tag: line, stamp: c.clock}
	c.Stats.Misses++
	if write {
		c.Stats.Writes++
	} else {
		c.Stats.Reads++
	}
	return 1, true
}

// AccessPairRun simulates k >= 1 consecutive pairs of references to the
// lines holding a and b (a's line, then b's, k times over) when both
// lines are resident. Then every reference hits: the clock advances by
// 2k, a's stamp becomes the final clock minus one and b's the final
// clock (one stamp, the final clock, when the lines coincide), and Hits
// and Reads/Writes rise by 2k, exactly as 2k Access calls would leave
// them. Otherwise it changes nothing and returns false; the caller then
// runs the pair through Access, where the miss takes its own path.
func (c *Cache) AccessPairRun(a, b mem.Addr, k uint64, write bool) bool {
	la, lb := uint64(a)>>c.lineShift, uint64(b)>>c.lineShift
	wa := c.lookup(la)
	if wa < 0 {
		return false
	}
	if la == lb {
		c.clock += 2 * k
		c.ways[wa].stamp = c.clock
	} else {
		wb := c.lookup(lb)
		if wb < 0 {
			return false
		}
		c.clock += 2 * k
		c.ways[wa].stamp = c.clock - 1
		c.ways[wb].stamp = c.clock
	}
	c.Stats.Hits += 2 * k
	if write {
		c.Stats.Writes += 2 * k
	} else {
		c.Stats.Reads += 2 * k
	}
	return true
}
