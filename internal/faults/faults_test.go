package faults

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"membottle/internal/mem"
	"membottle/internal/pmu"
)

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want Config
	}{
		{"seed=7,drop-miss=0.1,delay-miss=0.2,delay-misses=5,drop-timer=0.3,delay-timer=0.4," +
			"delay-cycles=9,zero-counter=0.05,saturate-counter=0.06,corrupt-batch=1,apps=tomcatv+swim",
			Config{Seed: 7, DropMissIrq: 0.1, DelayMissIrq: 0.2, DelayMisses: 5, DropTimerIrq: 0.3,
				DelayTimerIrq: 0.4, DelayCycles: 9, ZeroCounter: 0.05, SaturateCounter: 0.06,
				CorruptBatch: 1, Apps: []string{"swim", "tomcatv"}}},
		{" seed=-3 , drop-miss=0", Config{Seed: -3}},
		// The specs CI and the tests pass.
		{"drop-miss=0.3,delay-miss=0.2,zero-counter=0.01,saturate-counter=0.01,seed=2",
			Config{Seed: 2, DropMissIrq: 0.3, DelayMissIrq: 0.2, ZeroCounter: 0.01, SaturateCounter: 0.01}},
		{"drop-timer=0.3,delay-timer=0.2,saturate-counter=0.02,seed=3",
			Config{Seed: 3, DropTimerIrq: 0.3, DelayTimerIrq: 0.2, SaturateCounter: 0.02}},
		{"drop-miss=0.5,seed=3", Config{Seed: 3, DropMissIrq: 0.5}},
	} {
		got, err := Parse(tc.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
			continue
		}
		if !reflect.DeepEqual(*got, tc.want) {
			t.Errorf("Parse(%q) = %+v, want %+v", tc.spec, *got, tc.want)
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"", "empty specification"},
		{"  ", "empty specification"},
		{"drop-miss", "bad pair"},
		{"drop-miss=0.1,", "bad pair"},
		{"drop-mis=0.1", "unknown key"},
		{"drop-miss=-0.1", "not in [0,1]"},
		{"delay-timer=1.5", "not in [0,1]"},
		{"corrupt-batch=NaN", "not in [0,1]"},
		{"zero-counter=x", "not in [0,1]"},
		{"seed=x", "bad value for seed"},
		{"delay-misses=-1", "bad value for delay-misses"},
		{"delay-cycles=1e3", "bad value for delay-cycles"},
		{"drop-miss=0.3,apps=", "empty app name"},
		{"drop-miss=0.3,apps=mgrid+", "empty app name"},
		{"drop-miss=0.3,apps=mgrid++swim", "empty app name"},
		{"seed=1,seed=2", `repeated key "seed"`},
		{"apps=mgrid,drop-miss=0.1,apps=swim", `repeated key "apps"`},
	} {
		cfg, err := Parse(tc.spec)
		if err == nil || cfg != nil {
			t.Errorf("Parse(%q) = %+v, %v; want an error", tc.spec, cfg, err)
			continue
		}
		if !strings.HasPrefix(err.Error(), "faults: ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) error %q, want a faults: error containing %q", tc.spec, err, tc.want)
		}
	}
}

func TestEnabledAndAppliesTo(t *testing.T) {
	if (Config{Seed: 9, Apps: []string{"mgrid"}}).Enabled() {
		t.Error("a config with no rates is enabled")
	}
	if !(Config{CorruptBatch: 0.1}).Enabled() {
		t.Error("a config with a rate is not enabled")
	}
	all := Config{}
	one := Config{Apps: []string{"mgrid", "swim"}}
	if !all.AppliesTo("tomcatv") || !one.AppliesTo("swim") || one.AppliesTo("tomcatv") {
		t.Error("AppliesTo disagrees with Apps")
	}
}

func TestWithSeed(t *testing.T) {
	c := Config{Seed: 42, DropMissIrq: 0.5}
	if got := c.WithSeed(0); !reflect.DeepEqual(got, c) {
		t.Fatalf("attempt 0 changed the config: %+v", got)
	}
	seeds := map[int64]int{c.Seed: 0}
	for attempt := 1; attempt <= 4; attempt++ {
		got := c.WithSeed(attempt)
		if got.Seed != c.WithSeed(attempt).Seed {
			t.Fatalf("attempt %d is not deterministic", attempt)
		}
		if prev, dup := seeds[got.Seed]; dup {
			t.Fatalf("attempts %d and %d share seed %d", prev, attempt, got.Seed)
		}
		seeds[got.Seed] = attempt
		got.Seed = c.Seed
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("attempt %d changed more than the seed: %+v", attempt, got)
		}
	}
}

// draws records an injector's decisions over every hook.
func draws(cfg Config) []uint64 {
	in := New(cfg)
	cs := make([]pmu.Counter, 4)
	refs := []mem.Ref{{Addr: 0x1000}, {Addr: 0x2000, Write: true}}
	var out []uint64
	for i := 0; i < 200; i++ {
		drop, delay := in.MissOverflow()
		out = append(out, b2u(drop), delay)
		drop, delay = in.Timer()
		out = append(out, b2u(drop), delay)
		in.CorruptCounters(cs)
		for j := range cs {
			out = append(out, cs[j].Count)
			cs[j].Count++
		}
		for _, r := range in.CorruptBatch(refs) {
			out = append(out, uint64(r.Addr), b2u(r.Write))
		}
	}
	return out
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func TestDeterministicDraws(t *testing.T) {
	cfg := Config{Seed: 5, DropMissIrq: 0.2, DelayMissIrq: 0.3, DropTimerIrq: 0.2, DelayTimerIrq: 0.3,
		ZeroCounter: 0.1, SaturateCounter: 0.1, CorruptBatch: 0.2}
	a, b := draws(cfg), draws(cfg)
	if !slices.Equal(a, b) {
		t.Fatal("equal seeds drew different fault sequences")
	}
	if slices.Equal(a, draws(cfg.WithSeed(1))) {
		t.Fatal("a re-seeded retry drew the same fault sequence")
	}
}

func TestCorruptBatchLeavesInputIntact(t *testing.T) {
	in := New(Config{Seed: 1, CorruptBatch: 1})
	refs := make([]mem.Ref, 16)
	for i := range refs {
		refs[i] = mem.Ref{Addr: mem.Addr(i) << 12, Write: i%2 == 0, Compute: uint64(i)}
	}
	orig := slices.Clone(refs)
	for i := 0; i < 100; i++ {
		out := in.CorruptBatch(refs)
		if !slices.Equal(refs, orig) {
			t.Fatalf("draw %d mutated the input batch", i)
		}
		changed := 0
		for j := range out {
			if out[j] != refs[j] {
				changed++
			}
		}
		if len(out) != len(refs) || changed != 1 {
			t.Fatalf("draw %d: %d refs changed, want exactly 1", i, changed)
		}
	}
	if in.Stats.CorruptedBatches != 100 {
		t.Fatalf("CorruptedBatches = %d, want 100", in.Stats.CorruptedBatches)
	}
	if out := New(Config{Seed: 1}).CorruptBatch(refs); &out[0] != &refs[0] {
		t.Fatal("a zero rate copied the batch")
	}
}
