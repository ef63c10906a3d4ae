// Package truth provides exact per-object cache-miss accounting, playing
// the role of the "lower levels of the simulator, separate from the
// sampling and search code" that produce the paper's "Actual" columns.
// It observes misses through the machine's OnMiss hook at zero simulated
// cost: ground truth never perturbs the measurement.
package truth

import (
	"fmt"
	"sort"

	"membottle/internal/machine"
	"membottle/internal/mem"
	"membottle/internal/objmap"
)

// Row is one object's exact measurement.
type Row struct {
	Object *objmap.Object
	Misses uint64
	// Pct is the object's share of all application misses, 0..100.
	Pct float64
}

// Counter accumulates exact per-object miss counts for application misses
// (instrumentation-handler misses are excluded: ground truth describes the
// application, and separate cache statistics capture total perturbation).
type Counter struct {
	om *objmap.Map
	m  *machine.Machine
	// counts is indexed by dense object ID (zero-padded on demand): the
	// OnMiss hook runs once per cache miss, so the counter increment must
	// not pay a map hash.
	counts []uint64
	// Total counts all application misses, matched to an object or not.
	Total uint64
	// Unmatched counts application misses outside any known object.
	Unmatched uint64

	// BucketCycles, if non-zero, additionally records a time series of
	// per-object miss counts in buckets of that many virtual cycles
	// (Figure 5's "cache misses over time").
	BucketCycles uint64
	buckets      []map[int]uint64
}

// NewCounter builds a detached counter over the given object map, not
// observing any machine. The capture-based ground-truth engines use
// detached counters as merge targets: they accumulate Partial tallies and
// Merge folds them in, producing output identical to a Counter that
// observed the same run through a machine's OnMiss hook.
func NewCounter(om *objmap.Map) *Counter {
	return &Counter{om: om}
}

// Attach installs the counter on the machine, chaining any existing
// OnMiss observer.
func Attach(m *machine.Machine, om *objmap.Map) *Counter {
	c := &Counter{om: om, m: m}
	prev := m.OnMiss
	m.OnMiss = func(a mem.Addr, write, inHandler bool) {
		if prev != nil {
			prev(a, write, inHandler)
		}
		if inHandler {
			return
		}
		c.Total++
		obj := om.Lookup(a)
		if obj == nil {
			c.Unmatched++
			return
		}
		for len(c.counts) <= obj.ID {
			c.counts = append(c.counts, 0)
		}
		c.counts[obj.ID]++
		if c.BucketCycles != 0 {
			b := int(m.Cycles / c.BucketCycles)
			for len(c.buckets) <= b {
				c.buckets = append(c.buckets, make(map[int]uint64))
			}
			c.buckets[b][obj.ID]++
		}
	}
	return c
}

// Misses returns the exact miss count for the named object (0 if unknown).
func (c *Counter) Misses(name string) uint64 {
	for id, n := range c.counts {
		if n > 0 && c.om.ByID(id).Name == name {
			return n
		}
	}
	return 0
}

// Pct returns the named object's share of all application misses.
func (c *Counter) Pct(name string) float64 {
	if c.Total == 0 {
		return 0
	}
	return 100 * float64(c.Misses(name)) / float64(c.Total)
}

// Ranked returns all objects with at least one miss, sorted by miss count
// descending (ties broken by object ID).
func (c *Counter) Ranked() []Row {
	out := make([]Row, 0, len(c.counts))
	for id, n := range c.counts {
		if n == 0 {
			continue
		}
		pct := 0.0
		if c.Total > 0 {
			pct = 100 * float64(n) / float64(c.Total)
		}
		out = append(out, Row{Object: c.om.ByID(id), Misses: n, Pct: pct})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Misses != out[j].Misses {
			return out[i].Misses > out[j].Misses
		}
		return out[i].Object.ID < out[j].Object.ID
	})
	return out
}

// RankOf returns the 1-based rank of the named object (0 if absent).
func (c *Counter) RankOf(name string) int {
	for i, r := range c.Ranked() {
		if r.Object.Name == name {
			return i + 1
		}
	}
	return 0
}

// Series returns the per-bucket miss counts for the named object, padded
// to the full number of buckets observed.
func (c *Counter) Series(name string) []uint64 {
	var id = -1
	for _, o := range c.om.Objects() {
		if o.Name == name {
			id = o.ID
			break
		}
	}
	out := make([]uint64, len(c.buckets))
	if id < 0 {
		return out
	}
	for b, m := range c.buckets {
		out[b] = m[id]
	}
	return out
}

// Buckets returns the number of time buckets recorded.
func (c *Counter) Buckets() int { return len(c.buckets) }

// --- merging ---------------------------------------------------------------

// Partial is one ground-truth contribution from a detached tally:
// per-object miss tallies indexed by dense object ID, plus its total and
// unmatched miss counts. Merge folds Partials into one Counter.
type Partial struct {
	Counts    []uint64
	Total     uint64
	Unmatched uint64
}

// Merge folds partials into the counter, summing per-object counts; the
// counts slice is trimmed to the highest object ID actually
// missed, matching the lazily grown slice the OnMiss hook would have
// produced (State/Ranked output stays byte-identical).
func (c *Counter) Merge(parts ...Partial) {
	maxLen := len(c.counts)
	for _, p := range parts {
		n := len(p.Counts)
		for n > 0 && p.Counts[n-1] == 0 {
			n--
		}
		if n > maxLen {
			maxLen = n
		}
	}
	for len(c.counts) < maxLen {
		c.counts = append(c.counts, 0)
	}
	for _, p := range parts {
		for id, n := range p.Counts {
			if id < maxLen {
				c.counts[id] += n
			}
		}
		c.Total += p.Total
		c.Unmatched += p.Unmatched
	}
}

// --- checkpoint state ----------------------------------------------------

// State is the counter's serializable snapshot. Time-series bucket
// recording (BucketCycles) is not checkpointable; State returns an error
// when it is enabled rather than silently dropping the series.
type State struct {
	Counts    []uint64
	Total     uint64
	Unmatched uint64
}

// State captures the counter's current totals.
func (c *Counter) State() (State, error) {
	var s State
	if err := c.StateInto(&s); err != nil {
		return State{}, err
	}
	return s, nil
}

// StateInto captures the counter's current totals into s, reusing its
// Counts buffer when capacity allows. Periodic checkpoint writers hold one
// State and refill it on every snapshot, so the per-checkpoint copy stops
// allocating once the buffer has grown to the object population.
func (c *Counter) StateInto(s *State) error {
	if c.BucketCycles != 0 {
		return fmt.Errorf("truth: time-series bucket recording is not checkpointable")
	}
	s.Counts = append(s.Counts[:0], c.counts...)
	s.Total = c.Total
	s.Unmatched = c.Unmatched
	return nil
}

// SetState restores a snapshot taken by State. Object IDs are dense and
// assigned in Setup order, so counts restored into a freshly set-up
// system line up with the same objects.
func (c *Counter) SetState(s State) error {
	if c.BucketCycles != 0 {
		return fmt.Errorf("truth: time-series bucket recording is not checkpointable")
	}
	c.counts = append([]uint64(nil), s.Counts...)
	c.Total = s.Total
	c.Unmatched = s.Unmatched
	return nil
}
