package workload

import (
	"membottle/internal/machine"
)

// Applu recreates SPEC95 110.applu, the parabolic/elliptic PDE solver.
// Its defining feature in the paper is *short alternating phases*
// (Figure 5): the Jacobian blocks a, b, c (and d) dominate misses during
// the jacld/blts factorization phase and go completely quiet during the
// rhs phase, when rsd and the flux arrays take over. "A, B, C periodically
// cause no cache misses during a sample interval", which is exactly the
// case the search's zero-miss retention heuristic and interval stretching
// exist for.
//
// Paper Table 1 (actual): a 22.9, b 22.9, c 22.6, d 17.4, rsd 6.9.
type Applu struct {
	phaseX, phaseY schedule
	pos            int
	xUnits, yUnits int
}

func init() { register("applu", func() machine.Workload { return &Applu{} }) }

// Jacobian blocks are 1 MiB; the phase-Y arrays are sized so that a
// single sweep of each per iteration yields the paper's shares (rsd 2.5
// MiB ~6.4%, u 2 MiB ~5%, frct 1 MiB ~2.5% of the 39.5 MiB iteration).
const (
	appluArray = 1 << 20
	appluRsd   = 2<<20 + 512<<10
	appluU     = 2 << 20
	appluFrct  = 1 << 20
)

// Name implements machine.Workload.
func (w *Applu) Name() string { return "applu" }

// Setup implements machine.Workload.
func (w *Applu) Setup(m *machine.Machine) {
	a := m.Space.MustDefineGlobal("a", appluArray)
	b := m.Space.MustDefineGlobal("b", appluArray)
	c := m.Space.MustDefineGlobal("c", appluArray)
	d := m.Space.MustDefineGlobal("d", appluArray)
	rsd := m.Space.MustDefineGlobal("rsd", appluRsd)
	u := m.Space.MustDefineGlobal("u", appluU)
	frct := m.Space.MustDefineGlobal("frct", appluFrct)

	const cpe = 3
	// Phase X: jacobian factorization — a/b/c/d only (34 MiB: a/b/c 22.8%
	// each, d 17.7% of the iteration).
	// Phase Y: right-hand side — rsd/u/frct only, one sweep each (5.5
	// MiB). During phase Y the jacobian arrays cause no misses at all,
	// producing Figure 5's dips to zero.
	w.phaseX.add(9*segs(appluArray), storeSweep(a, appluArray, cpe))
	w.phaseX.add(9*segs(appluArray), storeSweep(b, appluArray, cpe))
	w.phaseX.add(9*segs(appluArray), storeSweep(c, appluArray, cpe))
	w.phaseX.add(7*segs(appluArray), storeSweep(d, appluArray, cpe))
	w.phaseX.build()
	w.xUnits = len(w.phaseX.order)

	w.phaseY.add(1*segs(appluRsd), storeSweep(rsd, appluRsd, cpe))
	w.phaseY.add(1*segs(appluU), loadSweep(u, appluU, cpe))
	w.phaseY.add(1*segs(appluFrct), loadSweep(frct, appluFrct, cpe))
	w.phaseY.build()
	w.yUnits = len(w.phaseY.order)
}

// Step implements machine.Workload.
func (w *Applu) Step(m *machine.Machine) {
	if w.pos < w.xUnits {
		w.phaseX.step(m)
	} else {
		w.phaseY.step(m)
	}
	w.pos++
	if w.pos >= w.xUnits+w.yUnits {
		w.pos = 0
	}
}
