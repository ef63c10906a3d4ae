// Package obs is the simulator's observability layer: a lock-cheap
// metrics registry (counters, gauges, fixed-bucket histograms), a bounded
// ring-buffer tracer of typed simulation events with virtual-cycle
// timestamps (exportable as JSONL and as Chrome trace_event JSON), a
// wall-clock progress reporter, and a net/http/pprof helper.
//
// The paper's whole argument is that a running memory system should be
// measurable with cheap hardware monitors; this package applies the same
// principle to the simulator itself. Everything here is stdlib-only and
// passive: recording reads simulation state but never mutates it, so an
// instrumented run produces bit-identical results to an uninstrumented
// one (the determinism tests enforce it). Registration takes a mutex;
// updates are single atomic operations, safe for concurrent use by
// parallel experiment cells sharing one registry.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is unusable;
// obtain counters from a Registry.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a last-writer-wins float metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram over uint64 observations. Bucket i
// counts observations <= Bounds[i]; one implicit overflow bucket counts
// the rest. Observe is two atomic adds plus a short branch-predictable
// scan of the bounds (bucket counts are at most a few dozen).
type Histogram struct {
	bounds []uint64
	counts []atomic.Uint64 // len(bounds)+1; last is overflow
	sum    atomic.Uint64
	n      atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Sum returns the running sum of observations.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Mean returns the average observation, 0 before any.
func (h *Histogram) Mean() float64 {
	if n := h.n.Load(); n > 0 {
		return float64(h.sum.Load()) / float64(n)
	}
	return 0
}

// Registry is a named collection of metrics. Get-or-create lookups take a
// mutex and are meant for setup; hot paths hold the returned instrument
// pointers and update them with single atomic operations.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds (which must be sorted ascending) on first use. Later calls
// with the same name return the existing histogram regardless of bounds.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		b := append([]uint64(nil), bounds...)
		h = &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
		r.histograms[name] = h
	}
	return h
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string
	Value uint64
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name  string
	Value float64
}

// HistogramValue is one histogram in a snapshot. Buckets[i] counts
// observations <= Bounds[i]; the final extra Buckets entry is overflow.
type HistogramValue struct {
	Name    string
	Count   uint64
	Sum     uint64
	Bounds  []uint64
	Buckets []uint64
}

// Snapshot is a point-in-time copy of every metric, sorted by name, the
// stable form the summary renderer and the golden tests consume.
type Snapshot struct {
	Counters   []CounterValue
	Gauges     []GaugeValue
	Histograms []HistogramValue
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: g.Value()})
	}
	for name, h := range r.histograms {
		hv := HistogramValue{
			Name:   name,
			Count:  h.Count(),
			Sum:    h.Sum(),
			Bounds: append([]uint64(nil), h.bounds...),
		}
		for i := range h.counts {
			hv.Buckets = append(hv.Buckets, h.counts[i].Load())
		}
		s.Histograms = append(s.Histograms, hv)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WriteSummary renders the snapshot as the fixed-width metrics summary
// block appended to reports. Zero-valued counters are printed too: a zero
// is a measurement ("no clamps happened"), not noise.
func (s Snapshot) WriteSummary(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "-- metrics summary ------------------------------------"); err != nil {
		return err
	}
	width := 0
	for _, c := range s.Counters {
		if len(c.Name) > width {
			width = len(c.Name)
		}
	}
	for _, g := range s.Gauges {
		if len(g.Name) > width {
			width = len(g.Name)
		}
	}
	for _, h := range s.Histograms {
		if len(h.Name) > width {
			width = len(h.Name)
		}
	}
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "counter  %-*s  %d\n", width, c.Name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "gauge    %-*s  %g\n", width, g.Name, g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		mean := 0.0
		if h.Count > 0 {
			mean = float64(h.Sum) / float64(h.Count)
		}
		if _, err := fmt.Fprintf(w, "hist     %-*s  count=%d sum=%d mean=%.1f\n", width, h.Name, h.Count, h.Sum, mean); err != nil {
			return err
		}
		if h.Count == 0 {
			continue
		}
		for i, n := range h.Buckets {
			if n == 0 {
				continue
			}
			label := "+inf"
			if i < len(h.Bounds) {
				label = fmt.Sprintf("le=%d", h.Bounds[i])
			}
			if _, err := fmt.Fprintf(w, "         %-*s    %-14s %d\n", width, "", label, n); err != nil {
				return err
			}
		}
	}
	return nil
}
