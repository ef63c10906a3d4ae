// Package faults provides deterministic, seeded fault injection for the
// simulated performance-monitoring hardware and for trace replay. The
// paper's techniques are valuable only if they stay trustworthy when the
// world misbehaves — interrupts are lost or late, counters glitch, traces
// arrive damaged — so the harness can inject exactly those failures and
// assert that the profilers either survive with degraded estimates or
// surface typed errors, never panic and never silently report wrong
// totals.
//
// All injection decisions are drawn from a splitmix64 generator seeded by
// Config.Seed: the same seed produces the same fault sequence on every
// run, with no wall-clock dependence, so fault-injection failures are
// reproducible and retries can re-roll deterministically by salting the
// seed with the attempt number.
package faults

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"membottle/internal/mem"
	"membottle/internal/pmu"
)

// Config selects which faults to inject and how often. All rates are
// probabilities in [0, 1], evaluated at each opportunity (an interrupt
// raise, a recorded miss, a replayed batch). The zero value injects
// nothing.
type Config struct {
	// Seed drives the deterministic fault generator.
	Seed int64

	// DropMissIrq is the probability that a miss-overflow interrupt is
	// silently discarded at the moment it would be raised.
	DropMissIrq float64
	// DelayMissIrq is the probability that a miss-overflow interrupt is
	// postponed by DelayMisses further cache misses instead of firing.
	DelayMissIrq float64
	// DelayMisses is the postponement amount for delayed miss-overflow
	// interrupts. Default 32.
	DelayMisses uint64

	// DropTimerIrq is the probability that a cycle-timer interrupt is
	// discarded when its deadline is reached (the timer is disarmed; the
	// handler that would have re-armed it never runs).
	DropTimerIrq float64
	// DelayTimerIrq is the probability that a timer interrupt slips by
	// DelayCycles virtual cycles.
	DelayTimerIrq float64
	// DelayCycles is the postponement for delayed timer interrupts.
	// Default 100,000.
	DelayCycles uint64

	// ZeroCounter is the per-miss probability that one region miss
	// counter (chosen deterministically) is reset to zero mid-run.
	ZeroCounter float64
	// SaturateCounter is the per-miss probability that one region miss
	// counter is saturated to the maximum count, as a stuck-at-ones
	// hardware fault would.
	SaturateCounter float64

	// CorruptBatch is the per-batch probability that a replayed trace
	// batch is corrupted before execution: one reference's address has
	// bits flipped, or its read/write sense inverted.
	CorruptBatch float64

	// Apps, when non-empty, restricts injection to the named workloads;
	// the experiment harness leaves other cells fault-free. This is how a
	// single table cell is poisoned while its neighbours stay healthy.
	Apps []string
}

// Enabled reports whether any fault has a nonzero rate.
func (c Config) Enabled() bool {
	return c.DropMissIrq > 0 || c.DelayMissIrq > 0 || c.DropTimerIrq > 0 ||
		c.DelayTimerIrq > 0 || c.ZeroCounter > 0 || c.SaturateCounter > 0 ||
		c.CorruptBatch > 0
}

// AppliesTo reports whether injection is active for the named workload.
func (c Config) AppliesTo(app string) bool {
	if len(c.Apps) == 0 {
		return true
	}
	for _, a := range c.Apps {
		if a == app {
			return true
		}
	}
	return false
}

// WithSeed returns a copy of the configuration reseeded for a retry
// attempt. Attempt 0 is the original seed; later attempts mix the attempt
// number in deterministically, so a retry re-rolls the fault sequence
// without any wall-clock dependence.
func (c Config) WithSeed(attempt int) Config {
	if attempt > 0 {
		c.Seed = c.Seed + int64(attempt)*0x9e3779b9
	}
	return c
}

// withDefaults fills the zero postponement amounts.
func (c Config) withDefaults() Config {
	if c.DelayMisses == 0 {
		c.DelayMisses = 32
	}
	if c.DelayCycles == 0 {
		c.DelayCycles = 100_000
	}
	return c
}

// Parse decodes a CLI fault specification: comma-separated key=value
// pairs, e.g.
//
//	drop-miss=0.1,zero-counter=0.01,seed=7,apps=tomcatv+swim
//
// Keys: seed, drop-miss, delay-miss, delay-misses, drop-timer,
// delay-timer, delay-cycles, zero-counter, saturate-counter,
// corrupt-batch, apps (plus-separated workload names). Each key may
// appear once, and every app name must be non-empty: a spec that would
// silently inject nothing, or silently drop a value, is an error.
func Parse(spec string) (*Config, error) {
	cfg := &Config{}
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("faults: empty specification")
	}
	rate := func(v string) (float64, error) {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(f) || f < 0 || f > 1 {
			return 0, fmt.Errorf("faults: rate %q not in [0,1]", v)
		}
		return f, nil
	}
	seen := map[string]bool{}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("faults: bad pair %q (want key=value)", kv)
		}
		if seen[k] {
			return nil, fmt.Errorf("faults: repeated key %q", k)
		}
		seen[k] = true
		var err error
		switch k {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(v, 10, 64)
		case "drop-miss":
			cfg.DropMissIrq, err = rate(v)
		case "delay-miss":
			cfg.DelayMissIrq, err = rate(v)
		case "delay-misses":
			cfg.DelayMisses, err = strconv.ParseUint(v, 10, 64)
		case "drop-timer":
			cfg.DropTimerIrq, err = rate(v)
		case "delay-timer":
			cfg.DelayTimerIrq, err = rate(v)
		case "delay-cycles":
			cfg.DelayCycles, err = strconv.ParseUint(v, 10, 64)
		case "zero-counter":
			cfg.ZeroCounter, err = rate(v)
		case "saturate-counter":
			cfg.SaturateCounter, err = rate(v)
		case "corrupt-batch":
			cfg.CorruptBatch, err = rate(v)
		case "apps":
			cfg.Apps = strings.Split(v, "+")
			sort.Strings(cfg.Apps) // an empty name sorts first
			if cfg.Apps[0] == "" {
				err = fmt.Errorf("empty app name in %q", v)
			}
		default:
			return nil, fmt.Errorf("faults: unknown key %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("faults: bad value for %s: %w", k, err)
		}
	}
	return cfg, nil
}

// Stats counts the faults actually injected during a run.
type Stats struct {
	DroppedMissIrqs  uint64
	DelayedMissIrqs  uint64
	DroppedTimerIrqs uint64
	DelayedTimerIrqs uint64
	ZeroedCounters   uint64
	SaturatedCounts  uint64
	CorruptedBatches uint64
}

// Total returns the number of faults injected.
func (s Stats) Total() uint64 {
	return s.DroppedMissIrqs + s.DelayedMissIrqs + s.DroppedTimerIrqs +
		s.DelayedTimerIrqs + s.ZeroedCounters + s.SaturatedCounts + s.CorruptedBatches
}

func (s Stats) String() string {
	return fmt.Sprintf("dropped-miss=%d delayed-miss=%d dropped-timer=%d delayed-timer=%d zeroed=%d saturated=%d corrupt-batches=%d",
		s.DroppedMissIrqs, s.DelayedMissIrqs, s.DroppedTimerIrqs, s.DelayedTimerIrqs,
		s.ZeroedCounters, s.SaturatedCounts, s.CorruptedBatches)
}

// Injector draws deterministic fault decisions for one simulated system.
// It implements pmu.FaultHook and trace.BatchFaultHook. Not safe for
// concurrent use; each simulated system owns its own injector, like every
// other piece of per-run state.
type Injector struct {
	cfg   Config
	rng   splitmix
	Stats Stats
}

// New returns an injector for the configuration.
func New(cfg Config) *Injector {
	cfg = cfg.withDefaults()
	return &Injector{cfg: cfg, rng: splitmix{s: uint64(cfg.Seed) ^ 0x6a09e667f3bcc909}}
}

// Config returns the effective configuration.
func (in *Injector) Config() Config { return in.cfg }

// MissOverflow implements pmu.FaultHook: consulted when a miss-overflow
// interrupt is about to be raised.
func (in *Injector) MissOverflow() (drop bool, delay uint64) {
	if in.cfg.DropMissIrq > 0 && in.rng.float() < in.cfg.DropMissIrq {
		in.Stats.DroppedMissIrqs++
		return true, 0
	}
	if in.cfg.DelayMissIrq > 0 && in.rng.float() < in.cfg.DelayMissIrq {
		in.Stats.DelayedMissIrqs++
		return false, in.cfg.DelayMisses
	}
	return false, 0
}

// Timer implements pmu.FaultHook: consulted when the cycle timer reaches
// its deadline.
func (in *Injector) Timer() (drop bool, delayCycles uint64) {
	if in.cfg.DropTimerIrq > 0 && in.rng.float() < in.cfg.DropTimerIrq {
		in.Stats.DroppedTimerIrqs++
		return true, 0
	}
	if in.cfg.DelayTimerIrq > 0 && in.rng.float() < in.cfg.DelayTimerIrq {
		in.Stats.DelayedTimerIrqs++
		return false, in.cfg.DelayCycles
	}
	return false, 0
}

// CorruptCounters implements pmu.FaultHook: called after every recorded
// miss, it may zero or saturate one region counter in place.
func (in *Injector) CorruptCounters(cs []pmu.Counter) {
	if len(cs) == 0 {
		return
	}
	if in.cfg.ZeroCounter > 0 && in.rng.float() < in.cfg.ZeroCounter {
		cs[in.rng.intn(uint64(len(cs)))].Count = 0
		in.Stats.ZeroedCounters++
	}
	if in.cfg.SaturateCounter > 0 && in.rng.float() < in.cfg.SaturateCounter {
		cs[in.rng.intn(uint64(len(cs)))].Count = ^uint64(0)
		in.Stats.SaturatedCounts++
	}
}

// CorruptBatch implements trace.BatchFaultHook: with the configured
// probability it returns a corrupted copy of a replay batch (one
// reference's address bit-flipped or its read/write sense inverted);
// otherwise it returns the batch unchanged. The original slice is never
// modified — the compiled trace stays intact for later wraps.
func (in *Injector) CorruptBatch(refs []mem.Ref) []mem.Ref {
	if in.cfg.CorruptBatch == 0 || len(refs) == 0 {
		return refs
	}
	if in.rng.float() >= in.cfg.CorruptBatch {
		return refs
	}
	in.Stats.CorruptedBatches++
	out := make([]mem.Ref, len(refs))
	copy(out, refs)
	i := in.rng.intn(uint64(len(out)))
	if in.rng.float() < 0.5 {
		out[i].Addr ^= mem.Addr(64 << in.rng.intn(10)) // flip a line-or-higher address bit
	} else {
		out[i].Write = !out[i].Write
	}
	return out
}

// --- typed errors --------------------------------------------------------

// ErrInjected is the sentinel matched (via errors.Is) by every error that
// the harness attributes to injected faults. Cells failing with it are
// retryable: the retry re-rolls the injector with a salted seed.
var ErrInjected = errors.New("faults: failure attributed to injected faults")

// InjectedError wraps a cell failure that occurred while fault injection
// was active for that cell. errors.Is(err, ErrInjected) matches it.
type InjectedError struct {
	App    string
	Reason error
	Stats  Stats
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faults: %s failed under injection (%s): %v", e.App, e.Stats, e.Reason)
}

// Unwrap exposes the underlying failure.
func (e *InjectedError) Unwrap() error { return e.Reason }

// Is matches the ErrInjected sentinel.
func (e *InjectedError) Is(target error) bool { return target == ErrInjected }

// Retryable reports whether a cell failure is worth retrying with a
// re-rolled fault seed.
func Retryable(err error) bool { return errors.Is(err, ErrInjected) }

// --- deterministic generator ---------------------------------------------

// splitmix is splitmix64: tiny, fast, and platform-independent.
type splitmix struct{ s uint64 }

func (p *splitmix) next() uint64 {
	p.s += 0x9e3779b97f4a7c15
	z := p.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (p *splitmix) float() float64 { return float64(p.next()>>11) / (1 << 53) }

// intn returns a uniform draw in [0, n).
func (p *splitmix) intn(n uint64) uint64 { return p.next() % n }
