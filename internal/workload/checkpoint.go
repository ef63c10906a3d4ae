package workload

// Checkpoint support: every registered workload implements
// machine.Checkpointer so a supervised run can be snapshotted at a Step
// boundary and resumed byte-identically. Workload private state is a
// handful of sweep cursors, phase positions, and PRNG words; it is
// flattened to a []uint64 and encoded as one checkpoint.Enc uvarint
// sequence. Transient per-Step batch buffers are always empty at Step
// boundaries and are not part of the state.

import (
	"fmt"

	"membottle/internal/checkpoint"
)

// encodeState serializes a workload's flattened state.
func encodeState(vals []uint64) []byte {
	var e checkpoint.Enc
	e.U64s(vals)
	return e.Take()
}

// decodeState reverses encodeState, requiring exactly n values.
func decodeState(data []byte, n int, who string) ([]uint64, error) {
	d := checkpoint.NewDec(data)
	vals := d.U64s()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("workload: %s state: %w", who, err)
	}
	if r := d.Remaining(); r != 0 {
		return nil, fmt.Errorf("workload: %s state has %d trailing bytes", who, r)
	}
	if len(vals) != n {
		return nil, fmt.Errorf("workload: %s state has %d values, want %d", who, len(vals), n)
	}
	return vals, nil
}

// --- single-schedule workloads -------------------------------------------

// CheckpointState implements machine.Checkpointer.
func (w *Tomcatv) CheckpointState() ([]byte, error) { return encodeState(w.sched.state()), nil }

// RestoreState implements machine.Checkpointer.
func (w *Tomcatv) RestoreState(data []byte) error {
	vals, err := decodeState(data, w.sched.stateLen(), "tomcatv")
	if err != nil {
		return err
	}
	return w.sched.setState(vals)
}

// CheckpointState implements machine.Checkpointer.
func (w *Swim) CheckpointState() ([]byte, error) { return encodeState(w.sched.state()), nil }

// RestoreState implements machine.Checkpointer.
func (w *Swim) RestoreState(data []byte) error {
	vals, err := decodeState(data, w.sched.stateLen(), "swim")
	if err != nil {
		return err
	}
	return w.sched.setState(vals)
}

// CheckpointState implements machine.Checkpointer.
func (w *Mgrid) CheckpointState() ([]byte, error) { return encodeState(w.sched.state()), nil }

// RestoreState implements machine.Checkpointer.
func (w *Mgrid) RestoreState(data []byte) error {
	vals, err := decodeState(data, w.sched.stateLen(), "mgrid")
	if err != nil {
		return err
	}
	return w.sched.setState(vals)
}

// CheckpointState implements machine.Checkpointer.
func (w *Figure2) CheckpointState() ([]byte, error) { return encodeState(w.sched.state()), nil }

// RestoreState implements machine.Checkpointer.
func (w *Figure2) RestoreState(data []byte) error {
	vals, err := decodeState(data, w.sched.stateLen(), "figure2")
	if err != nil {
		return err
	}
	return w.sched.setState(vals)
}

// CheckpointState implements machine.Checkpointer.
func (w *Art) CheckpointState() ([]byte, error) { return encodeState(w.sched.state()), nil }

// RestoreState implements machine.Checkpointer.
func (w *Art) RestoreState(data []byte) error {
	vals, err := decodeState(data, w.sched.stateLen(), "art")
	if err != nil {
		return err
	}
	return w.sched.setState(vals)
}

// --- two-phase workloads -------------------------------------------------

// CheckpointState implements machine.Checkpointer.
func (w *Applu) CheckpointState() ([]byte, error) {
	vals := append(w.phaseX.state(), w.phaseY.state()...)
	vals = append(vals, uint64(w.pos))
	return encodeState(vals), nil
}

// RestoreState implements machine.Checkpointer.
func (w *Applu) RestoreState(data []byte) error {
	nx, ny := w.phaseX.stateLen(), w.phaseY.stateLen()
	vals, err := decodeState(data, nx+ny+1, "applu")
	if err != nil {
		return err
	}
	if err := w.phaseX.setState(vals[:nx]); err != nil {
		return err
	}
	if err := w.phaseY.setState(vals[nx : nx+ny]); err != nil {
		return err
	}
	if p := vals[nx+ny]; p >= uint64(w.xUnits+w.yUnits) {
		return fmt.Errorf("workload: applu phase position %d out of range", p)
	}
	w.pos = int(vals[nx+ny])
	return nil
}

// CheckpointState implements machine.Checkpointer.
func (w *Su2cor) CheckpointState() ([]byte, error) {
	vals := append(w.phaseA.state(), w.phaseB.state()...)
	vals = append(vals, uint64(w.pos))
	return encodeState(vals), nil
}

// RestoreState implements machine.Checkpointer.
func (w *Su2cor) RestoreState(data []byte) error {
	na, nb := w.phaseA.stateLen(), w.phaseB.stateLen()
	vals, err := decodeState(data, na+nb+1, "su2cor")
	if err != nil {
		return err
	}
	if err := w.phaseA.setState(vals[:na]); err != nil {
		return err
	}
	if err := w.phaseB.setState(vals[na : na+nb]); err != nil {
		return err
	}
	if p := vals[na+nb]; p >= uint64(w.aUnits+w.bUnits) {
		return fmt.Errorf("workload: su2cor phase position %d out of range", p)
	}
	w.pos = int(vals[na+nb])
	return nil
}

// --- streaming workloads -------------------------------------------------

// CheckpointState implements machine.Checkpointer. The per-Step batch
// buffer is always empty between Steps and is not captured.
func (w *Compress) CheckpointState() ([]byte, error) {
	return encodeState([]uint64{w.inPos, w.outPos, w.dictEntries, w.rng.s}), nil
}

// RestoreState implements machine.Checkpointer.
func (w *Compress) RestoreState(data []byte) error {
	vals, err := decodeState(data, 4, "compress")
	if err != nil {
		return err
	}
	w.inPos, w.outPos, w.dictEntries, w.rng.s = vals[0], vals[1], vals[2], vals[3]
	return nil
}

// CheckpointState implements machine.Checkpointer.
func (w *Ijpeg) CheckpointState() ([]byte, error) {
	return encodeState([]uint64{w.inPos, w.outPos, w.wsPos, uint64(w.linesSinceWorkspaceTouch)}), nil
}

// RestoreState implements machine.Checkpointer.
func (w *Ijpeg) RestoreState(data []byte) error {
	vals, err := decodeState(data, 4, "ijpeg")
	if err != nil {
		return err
	}
	w.inPos, w.outPos, w.wsPos = vals[0], vals[1], vals[2]
	w.linesSinceWorkspaceTouch = int(vals[3])
	return nil
}

// CheckpointState implements machine.Checkpointer.
func (w *Mcf) CheckpointState() ([]byte, error) {
	return encodeState([]uint64{w.cursor}), nil
}

// RestoreState implements machine.Checkpointer.
func (w *Mcf) RestoreState(data []byte) error {
	vals, err := decodeState(data, 1, "mcf")
	if err != nil {
		return err
	}
	w.cursor = vals[0]
	return nil
}

// CheckpointState implements machine.Checkpointer.
func (w *Equake) CheckpointState() ([]byte, error) {
	return encodeState([]uint64{w.pos}), nil
}

// RestoreState implements machine.Checkpointer.
func (w *Equake) RestoreState(data []byte) error {
	vals, err := decodeState(data, 1, "equake")
	if err != nil {
		return err
	}
	w.pos = vals[0]
	return nil
}
