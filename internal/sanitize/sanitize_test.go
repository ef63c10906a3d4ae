package sanitize_test

import (
	"errors"
	"testing"

	"membottle/internal/cache"
	"membottle/internal/machine"
	"membottle/internal/mem"
	"membottle/internal/pmu"
	"membottle/internal/sanitize"
	"membottle/internal/workload"
)

const budget = 4_000_000

// newRun builds mgrid on a small cache with a miss-overflow interrupt
// every 500 misses, so the run crosses well over sweepEvery interrupt
// boundaries, and attaches the checker.
func newRun(t *testing.T) (*machine.Machine, machine.Workload, *sanitize.Checker) {
	t.Helper()
	m := machine.New(mem.NewSpace(), cache.New(cache.Config{Size: 32 << 10, LineSize: 64, Assoc: 4}),
		pmu.New(2), machine.DefaultCosts())
	w, err := workload.New("mgrid")
	if err != nil {
		t.Fatal(err)
	}
	w.Setup(m)
	m.PMU.SetMissInterrupt(500)
	return m, w, sanitize.Attach(m, nil)
}

// invariant asserts err is an InvariantError naming one of checks.
func invariant(t *testing.T, err error, checks ...string) {
	t.Helper()
	if !errors.Is(err, sanitize.ErrInvariant) {
		t.Fatalf("got %v, want ErrInvariant", err)
	}
	var ie *sanitize.InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("error %v does not carry an InvariantError", err)
	}
	for _, c := range checks {
		if ie.Check == c {
			return
		}
	}
	t.Fatalf("violated check = %q, want one of %q", ie.Check, checks)
}

func TestCleanRunNoViolations(t *testing.T) {
	m, w, c := newRun(t)
	if err := m.RunContext(nil, w, budget); err != nil {
		t.Fatalf("healthy run: %v", err)
	}
	if err := c.Final(); err != nil {
		t.Fatalf("Final on a healthy run: %v", err)
	}
	if c.Boundaries() < 64 {
		t.Errorf("%d boundary checks, want at least one full sweep's worth", c.Boundaries())
	}
	if c.Violations() != 0 {
		t.Errorf("healthy run raised %d violations", c.Violations())
	}
}

// TestCacheCorruptionDetected flushes the real cache behind the shadow
// model's back between two references: the next reference to a line the
// shadow still holds must surface as a verdict or way divergence.
func TestCacheCorruptionDetected(t *testing.T) {
	m, w, c := newRun(t)
	refs := 0
	checked := m.OnAccess
	m.OnAccess = func(a mem.Addr, write, miss, inHandler bool) {
		checked(a, write, miss, inHandler)
		if refs++; refs == 100_000 {
			m.Cache.Flush()
		}
	}
	err := m.RunContext(nil, w, budget)
	if err == nil {
		err = c.Final()
	}
	invariant(t, err, "shadow-verdict", "shadow-way")
	if refs < 100_000 {
		t.Fatalf("run issued %d references, never reaching the flush", refs)
	}
	if c.Violations() == 0 {
		t.Error("violation not counted")
	}
}

func TestSkewedGlobalMissesDetected(t *testing.T) {
	m, w, c := newRun(t)
	if err := m.RunContext(nil, w, budget/2); err != nil {
		t.Fatalf("healthy first half: %v", err)
	}
	m.PMU.GlobalMisses += 7
	invariant(t, c.Final(), "pmu-global-misses")
	if c.Violations() != 1 {
		t.Errorf("%d violations counted, want 1", c.Violations())
	}
}
