package core

// Checkpoint support for the sampling profiler. The sampler's state is a
// handful of counters plus a math/rand generator; the generator's internal
// state is not serializable, so the checkpoint records the run-length
// history of Int63n arguments consumed and the restore path replays them
// against a freshly seeded generator. Int63n's consumption of the
// underlying source is fully determined by the seed and the argument
// sequence, so the replayed generator lands in exactly the original state.
//
// The n-way search profiler deliberately implements no checkpoint: its
// state includes a priority queue of live region pointers mid-refinement,
// and snapshotting it would freeze search decisions that are only
// meaningful relative to the exact interrupt they were made in. Callers
// get a typed ErrNotCheckpointable from the system layer instead.

import (
	"errors"
	"fmt"
	"math/rand"

	"membottle/internal/checkpoint"
)

// errSamplerState tags malformed sampler checkpoint payloads.
var errSamplerState = errors.New("core: malformed sampler checkpoint state")

// maxReplayDraws bounds generator replay so a corrupt checkpoint cannot
// demand an effectively unbounded amount of CPU on restore.
const maxReplayDraws = 1 << 24

// CheckpointState implements machine.Checkpointer.
func (s *Sampler) CheckpointState() ([]byte, error) {
	if !s.installed {
		return nil, fmt.Errorf("core: sampler not installed")
	}
	var e checkpoint.Enc
	e.U64(s.samples)
	e.U64(s.matched)
	e.U64(s.interval)
	e.U64s(s.counts)
	e.U64(uint64(len(s.draws)))
	for _, d := range s.draws {
		e.U64(d.arg)
		e.U64(d.n)
	}
	return e.Take(), nil
}

// RestoreState implements machine.Checkpointer. The sampler must already
// be installed on the restored machine (Install rebuilds the shadow
// structures deterministically; this call then rewinds the counters and
// generator to the snapshot).
func (s *Sampler) RestoreState(data []byte) error {
	if !s.installed {
		return fmt.Errorf("core: sampler not installed")
	}
	d := checkpoint.NewDec(data)
	samples := d.U64()
	matched := d.U64()
	interval := d.U64()
	counts := d.U64s()
	draws := make([]drawRun, d.Count(2))
	var total uint64
	for i := range draws {
		draws[i] = drawRun{arg: d.U64(), n: d.U64()}
		total += draws[i].n
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("%w: %w", errSamplerState, err)
	}
	if n := d.Remaining(); n != 0 {
		return fmt.Errorf("%w: %d trailing bytes", errSamplerState, n)
	}
	if interval == 0 {
		return fmt.Errorf("%w: zero interval", errSamplerState)
	}
	if total > maxReplayDraws {
		return fmt.Errorf("%w: %d generator draws exceed replay limit", errSamplerState, total)
	}
	rng := rand.New(rand.NewSource(s.cfg.Seed))
	for _, r := range draws {
		if r.arg == 0 || r.arg > 1<<62 {
			return fmt.Errorf("%w: draw argument %d out of range", errSamplerState, r.arg)
		}
		for j := uint64(0); j < r.n; j++ {
			rng.Int63n(int64(r.arg))
		}
	}
	s.samples, s.matched, s.interval = samples, matched, interval
	s.counts = counts
	s.draws = draws
	s.rng = rng
	return nil
}
