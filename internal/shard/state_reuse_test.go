package shard_test

import (
	"testing"

	"membottle/internal/cache"
	"membottle/internal/machine"
	"membottle/internal/mem"
	"membottle/internal/pmu"
	"membottle/internal/shard"
	"membottle/internal/workload"
)

// entryCollect stores a run-compacted capture whole, for offline replay.
type entryCollect struct {
	entries []uint64
	refs    uint64
}

func (c *entryCollect) ConsumeRuns(entries []uint64, refs, _, _ uint64) {
	c.entries = append(c.entries, entries...)
	c.refs += refs
}

// TestCaptureReplayWithStateIntoReuse covers the interaction the
// representative-interval engine's warmup hand-off depends on: a stream
// captured in machine capture mode, replayed through a cache partition
// in two halves with the warmed image carried across by a checkpoint
// StateInto snapshot whose buffer is reused — must reproduce the
// sharded ground-truth engine's hit/miss outcomes exactly, and the
// repeated snapshots must not reallocate the reused Ways buffer.
func TestCaptureReplayWithStateIntoReuse(t *testing.T) {
	const app, budget = "mgrid", 2_000_000
	cfg := cache.DefaultConfig()

	w, err := workload.New(app)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := shard.Run(nil, w, budget, shard.Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Capture the identical stream run-compacted (machine capture mode:
	// no cache simulated, the stream cannot depend on cache outcomes).
	w2, err := workload.New(app)
	if err != nil {
		t.Fatal(err)
	}
	var cp entryCollect
	m := machine.New(mem.NewSpace(), cache.New(cfg), pmu.New(0), machine.DefaultCosts())
	m.SetRunCapture(&cp)
	w2.Setup(m)
	m.Run(w2, budget)
	m.FlushCapture()
	if cp.refs != oracle.Stats.Accesses() {
		t.Fatalf("capture covered %d refs, sharded oracle issued %d", cp.refs, oracle.Stats.Accesses())
	}

	// Straight replay through one full-cache partition: the baseline the
	// split replay must match bit for bit.
	straight, err := cache.NewPartition(cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var missIdx []uint32
	missIdx = straight.SweepRuns(cp.entries, missIdx[:0])

	// Split replay: first half into one partition, snapshot through a
	// reused State, restore into a second partition, sweep the rest. The
	// snapshot buffer is pre-seeded larger than needed, so StateInto must
	// shrink-reuse it rather than allocate.
	half := len(cp.entries) / 2
	pa, err := cache.NewPartition(cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	missIdx = pa.SweepRuns(cp.entries[:half], missIdx[:0])
	var snap cache.State
	pa.StateInto(&snap)
	snap.Ways = append(snap.Ways, make([]cache.WayState, 1024)...)[:len(snap.Ways)]
	first := &snap.Ways[0]
	pa.StateInto(&snap)
	if &snap.Ways[0] != first {
		t.Error("second StateInto reallocated the reused Ways buffer")
	}
	pb, err := cache.NewPartition(cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := pb.SetState(snap); err != nil {
		t.Fatal(err)
	}
	missIdx = pb.SweepRuns(cp.entries[half:], missIdx[:0])
	_ = missIdx

	if pb.Stats != straight.Stats {
		t.Errorf("split replay stats %+v diverge from straight replay %+v", pb.Stats, straight.Stats)
	}
	// SweepRuns tallies every reference under Reads (run form carries no
	// write flag), so compare outcome counters against the oracle, not
	// the read/write split.
	if pb.Stats.Misses != oracle.Stats.Misses || pb.Stats.Hits != oracle.Stats.Hits {
		t.Errorf("split replay hits/misses %d/%d diverge from sharded oracle %d/%d",
			pb.Stats.Hits, pb.Stats.Misses, oracle.Stats.Hits, oracle.Stats.Misses)
	}

	// A geometry mismatch must be refused, not silently misrestored.
	small, err := cache.NewPartition(cache.Config{Size: 1 << 12, LineSize: 64, Assoc: 4}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := small.SetState(snap); err == nil {
		t.Error("SetState accepted a snapshot of a different geometry")
	}
}
