package capture_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"membottle/internal/capture"
	"membottle/internal/interval"
	"membottle/internal/machine"
	"membottle/internal/mem"
	"membottle/internal/obs"
	"membottle/internal/shard"
)

// precondWork sweeps a heap block every step. setup runs once at the
// end of Setup; mutate runs once, on the third step, after the capture
// is well under way.
type precondWork struct {
	name   string
	setup  func(w *precondWork, m *machine.Machine)
	mutate func(w *precondWork, m *machine.Machine)
	base   mem.Addr
	spare  mem.Addr
	steps  int
}

func (w *precondWork) Name() string { return w.name }

func (w *precondWork) Setup(m *machine.Machine) {
	w.base = m.MustMalloc(64 << 10)
	if w.setup != nil {
		w.setup(w, m)
	}
}

func (w *precondWork) Step(m *machine.Machine) {
	if w.steps++; w.steps == 3 && w.mutate != nil {
		w.mutate(w, m)
	}
	m.LoadRange(w.base, 64<<10, 8, 0)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// engines runs one workload through each capture-based engine.
var engines = []struct {
	name string
	run  func(w machine.Workload, o *obs.Obs) error
}{
	{"shard", func(w machine.Workload, o *obs.Obs) error {
		_, err := shard.Run(context.Background(), w, 1_000_000, shard.Config{Workers: 2, Obs: o})
		return err
	}},
	{"interval", func(w machine.Workload, o *obs.Obs) error {
		_, err := interval.Run(context.Background(), w, 1_000_000, interval.Config{Obs: o})
		return err
	}},
}

// TestFallbackPreconditions checks that both capture engines demote every
// precondition violation to the sequential engine through one
// ErrFallback, naming the workload and counting the fallback under the
// engine's obs counter, rather than resolving against a stale object-map
// snapshot — and that a workload breaking none of them is served.
func TestFallbackPreconditions(t *testing.T) {
	cases := []struct {
		name   string
		setup  func(w *precondWork, m *machine.Machine)
		mutate func(w *precondWork, m *machine.Machine)
		want   string // "" means the run is served
	}{
		{name: "clean"},
		{name: "setup-refs", want: "during Setup",
			setup: func(w *precondWork, m *machine.Machine) { m.Load(w.base) }},
		{name: "malloc", want: "mid-run",
			mutate: func(w *precondWork, m *machine.Machine) { m.MustMalloc(4096) }},
		{name: "free", want: "mid-run",
			setup:  func(w *precondWork, m *machine.Machine) { w.spare = m.MustMalloc(4096) },
			mutate: func(w *precondWork, m *machine.Machine) { must(m.Free(w.spare)) }},
		{name: "arena", want: "mid-run",
			mutate: func(w *precondWork, m *machine.Machine) {
				_, err := m.Space.NewArena("site", 4096)
				must(err)
			}},
		{name: "stack-push", want: "mid-run",
			mutate: func(w *precondWork, m *machine.Machine) {
				_, err := m.PushFrame("f", 256)
				must(err)
			}},
		{name: "stack-pop", want: "mid-run",
			setup: func(w *precondWork, m *machine.Machine) {
				_, err := m.PushFrame("f", 256)
				must(err)
			},
			mutate: func(w *precondWork, m *machine.Machine) { must(m.PopFrame()) }},
	}
	for _, eng := range engines {
		for _, tc := range cases {
			t.Run(eng.name+"/"+tc.name, func(t *testing.T) {
				o := obs.New(obs.Options{NoTrace: true})
				w := &precondWork{name: "wl-" + tc.name, setup: tc.setup, mutate: tc.mutate}
				err := eng.run(w, o)
				fallbacks := o.Registry.Counter(eng.name + ".fallbacks").Value()
				if tc.want == "" {
					if err != nil || fallbacks != 0 {
						t.Fatalf("clean workload: err %v, %d fallbacks", err, fallbacks)
					}
					return
				}
				if !errors.Is(err, capture.ErrFallback) {
					t.Fatalf("got %v, want ErrFallback", err)
				}
				if msg := err.Error(); !strings.Contains(msg, w.name) || !strings.Contains(msg, tc.want) {
					t.Errorf("fallback error %q does not name the workload and %q", msg, tc.want)
				}
				if fallbacks != 1 {
					t.Errorf("%s.fallbacks = %d, want 1", eng.name, fallbacks)
				}
			})
		}
	}
}
