package membottle_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"testing"

	"membottle"
	"membottle/internal/codectest"
	"membottle/internal/machine"
	"membottle/internal/mem"
	"membottle/internal/trace"
)

var updateGolden = flag.Bool("update", false, "create missing codec goldens (existing ones are never rewritten)")

// stateCase builds a fresh system, runs it, and returns the component
// whose private checkpoint state is under test.
type stateCase struct {
	name  string
	build func(t *testing.T, run bool) machine.Checkpointer
}

// stateCases are one mid-run workload, sampler and trace replay.
func stateCases() []stateCase {
	const budget = 3_000_000
	// Compute at the head of the trace compiles to a break, so the
	// replay state carries a non-zero break position too.
	var tr bytes.Buffer
	tw, err := trace.NewWriter(&tr)
	if err != nil {
		panic(err)
	}
	tw.Compute(9)
	for i := 0; i < 1<<14; i++ {
		tw.Ref(mem.Addr(0x10000+uint64(i)*72%(1<<20)), i%5 == 0)
		tw.Compute(uint64(i % 7))
	}
	if err := tw.Close(); err != nil {
		panic(err)
	}

	return []stateCase{
		{"workload", func(t *testing.T, run bool) machine.Checkpointer {
			sys := membottle.NewSystem(membottle.DefaultConfig())
			w, err := membottle.NewWorkload("applu")
			if err != nil {
				t.Fatal(err)
			}
			sys.LoadWorkload(w)
			if run {
				sys.Run(budget)
			}
			return w.(machine.Checkpointer)
		}},
		{"sampler", func(t *testing.T, run bool) machine.Checkpointer {
			sys, prof := newSamplerSystem(t, membottle.DefaultConfig(), "mgrid")
			if run {
				sys.Run(budget)
			}
			return prof
		}},
		{"replay", func(t *testing.T, run bool) machine.Checkpointer {
			rp, err := trace.NewReplay("golden", bytes.NewReader(tr.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			sys := membottle.NewSystem(membottle.DefaultConfig())
			sys.LoadWorkload(rp)
			if run {
				sys.Run(40_000)
			}
			return rp
		}},
	}
}

// TestPrivateStateGolden pins the bytes of the workload, sampler and
// replay checkpoint payloads (each a uvarint length then the payload in
// the golden) and checks that each restores into a fresh component that
// checkpoints the same bytes, while every strict prefix and a trailing
// byte are rejected.
func TestPrivateStateGolden(t *testing.T) {
	var all []byte
	payloads := map[string][]byte{}
	for _, c := range stateCases() {
		p, err := c.build(t, true).CheckpointState()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		payloads[c.name] = p
		all = binary.AppendUvarint(all, uint64(len(p)))
		all = append(all, p...)
	}
	codectest.Golden(t, "testdata", "private-state", "v1", all, *updateGolden)

	for _, c := range stateCases() {
		p := payloads[c.name]
		fresh := c.build(t, false)
		if err := fresh.RestoreState(p); err != nil {
			t.Fatalf("%s: restore: %v", c.name, err)
		}
		if again, err := fresh.CheckpointState(); err != nil || !bytes.Equal(again, p) {
			t.Fatalf("%s: restored state checkpoints %x (%v), want %x", c.name, again, err, p)
		}
		for n := 0; n < len(p); n++ {
			if err := c.build(t, false).RestoreState(p[:n]); err == nil {
				t.Errorf("%s: %d-byte prefix of a %d-byte payload accepted", c.name, n, len(p))
			}
		}
		if err := c.build(t, false).RestoreState(append(p[:len(p):len(p)], 0)); err == nil {
			t.Errorf("%s: payload with a trailing byte accepted", c.name)
		}
	}
}
