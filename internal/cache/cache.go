// Package cache implements the single-level set-associative cache simulator
// the paper's study runs on: a 2 MB cache with LRU replacement in their
// experiments, configurable here. The simulator tracks exact hit/miss
// behaviour per reference; it does not model pipelining or multiple issue,
// matching the paper's stated simplifications.
package cache

import (
	"fmt"
	"math/bits"

	"membottle/internal/mem"
)

// Config describes a cache geometry.
type Config struct {
	// Size is the total capacity in bytes. Must be a power of two.
	Size int
	// LineSize is the cache line (block) size in bytes. Must be a power of two.
	LineSize int
	// Assoc is the set associativity. Must divide Size/LineSize and be >= 1.
	Assoc int
}

// DefaultConfig is the paper's evaluation cache: 2 MB, 64-byte lines,
// 4-way set associative, LRU.
func DefaultConfig() Config {
	return Config{Size: 2 << 20, LineSize: 64, Assoc: 4}
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	if c.Size <= 0 || c.Size&(c.Size-1) != 0 {
		return fmt.Errorf("cache: size %d not a positive power of two", c.Size)
	}
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache: line size %d not a positive power of two", c.LineSize)
	}
	if c.LineSize > c.Size {
		return fmt.Errorf("cache: line size %d exceeds cache size %d", c.LineSize, c.Size)
	}
	lines := c.Size / c.LineSize
	if c.Assoc < 1 || c.Assoc > lines {
		return fmt.Errorf("cache: associativity %d out of range [1,%d]", c.Assoc, lines)
	}
	if lines%c.Assoc != 0 {
		return fmt.Errorf("cache: %d lines not divisible by associativity %d", lines, c.Assoc)
	}
	return nil
}

// Stats aggregates the cache's reference counts.
type Stats struct {
	Reads, Writes uint64
	Hits, Misses  uint64
}

// Accesses returns the total number of references.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// MissRatio returns misses as a fraction of accesses (0 if no accesses).
func (s Stats) MissRatio() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Misses) / float64(a)
	}
	return 0
}

// way is one cache line's metadata. Tag and LRU stamp live side by side so
// that probing a whole 4-way set touches a single 64-byte host cache line;
// a zero stamp marks the way invalid (live stamps start at 1, and Flush
// zeroes stamps).
type way struct {
	tag   uint64 // line tag (address >> lineShift)
	stamp uint64 // LRU timestamp; 0 = invalid
}

// Cache is a set-associative cache with LRU replacement. It is not
// safe for concurrent use; the simulated machine is single-threaded, as in
// the paper.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	assoc     int

	// Ways are stored flat: set s occupies ways[s*assoc : (s+1)*assoc].
	ways  []way
	clock uint64

	Stats Stats
}

// New creates a cache. It panics on an invalid configuration; callers that
// accept external configuration should call cfg.Validate first.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lines := cfg.Size / cfg.LineSize
	sets := lines / cfg.Assoc
	return &Cache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setMask:   uint64(sets - 1),
		assoc:     cfg.Assoc,
		ways:      make([]way, lines),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.setMask) + 1 }

// Access simulates one reference to address a and reports whether it
// missed. Write misses allocate (write-allocate policy); write-back traffic
// is not modelled, as in the paper's single-level simulator.
func (c *Cache) Access(a mem.Addr, write bool) (miss bool) {
	if write {
		c.Stats.Writes++
	} else {
		c.Stats.Reads++
	}
	line := uint64(a) >> c.lineShift
	set := int(line & c.setMask)
	base := set * c.assoc
	c.clock++

	// Victim selection: an invalid way (stamp 0) always beats a valid one,
	// and the <= keeps the historical tie-break of the last invalid way.
	victim := base
	oldest := ^uint64(0)
	for i := base; i < base+c.assoc; i++ {
		if st := c.ways[i].stamp; st != 0 && c.ways[i].tag == line {
			c.ways[i].stamp = c.clock
			c.Stats.Hits++
			return false
		} else if st <= oldest {
			victim = i
			oldest = st
		}
	}
	c.Stats.Misses++
	c.ways[victim] = way{tag: line, stamp: c.clock}
	return true
}

// Probe reports whether address a is currently resident, without updating
// LRU state or statistics. Used by tests and by perturbation analyses.
func (c *Cache) Probe(a mem.Addr) bool {
	return c.lookup(uint64(a)>>c.lineShift) >= 0
}

// lookup returns the index of the way holding line, or -1 when the line
// is not resident.
func (c *Cache) lookup(line uint64) int {
	base := int(line&c.setMask) * c.assoc
	for i := base; i < base+c.assoc; i++ {
		if c.ways[i].stamp != 0 && c.ways[i].tag == line {
			return i
		}
	}
	return -1
}

// Flush invalidates all lines and leaves statistics intact.
func (c *Cache) Flush() {
	for i := range c.ways {
		c.ways[i].stamp = 0
	}
}

// ResetStats zeroes the statistics without touching cache contents.
func (c *Cache) ResetStats() { c.Stats = Stats{} }

// Resident returns the number of valid lines (for tests and diagnostics).
func (c *Cache) Resident() int {
	n := 0
	for _, w := range c.ways {
		if w.stamp != 0 {
			n++
		}
	}
	return n
}

// --- checkpoint state ----------------------------------------------------

// WayState is one cache line's serializable metadata.
type WayState struct {
	Tag   uint64
	Stamp uint64 // 0 = invalid
}

// State is a full snapshot of the cache: geometry-independent counters
// plus every way's tag and LRU stamp. Restoring it into a cache of the
// same geometry reproduces hit/miss behaviour exactly, including LRU
// ordering (stamps are absolute clock values).
type State struct {
	Clock uint64
	Stats Stats
	Ways  []WayState
}

// State captures the cache's current contents and statistics.
func (c *Cache) State() State {
	var s State
	c.StateInto(&s)
	return s
}

// StateInto captures the cache's current contents and statistics into s,
// reusing its Ways buffer when capacity allows. Periodic checkpoint
// writers hold one State and refill it on every snapshot, so the
// per-checkpoint way copy (32K entries for the paper's 2 MB geometry)
// stops allocating after the first write.
func (c *Cache) StateInto(s *State) {
	if cap(s.Ways) < len(c.ways) {
		s.Ways = make([]WayState, len(c.ways))
	}
	s.Ways = s.Ways[:len(c.ways)]
	for i, w := range c.ways {
		s.Ways[i] = WayState{Tag: w.tag, Stamp: w.stamp}
	}
	s.Clock = c.clock
	s.Stats = c.Stats
}

// SetState restores a snapshot taken by State. The cache must have the
// same geometry (same number of ways) as the snapshotted one.
func (c *Cache) SetState(s State) error {
	if len(s.Ways) != len(c.ways) {
		return fmt.Errorf("cache: snapshot has %d ways, cache has %d", len(s.Ways), len(c.ways))
	}
	for i, w := range s.Ways {
		c.ways[i] = way{tag: w.Tag, stamp: w.Stamp}
	}
	c.clock = s.Clock
	c.Stats = s.Stats
	return nil
}
