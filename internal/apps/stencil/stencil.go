// Package stencil is the control application of the study: a *regular*
// five-point Jacobi relaxation on a fixed n×n grid. Nothing adapts — the
// decomposition is a static block of rows, the communication pattern is two
// large contiguous halo rows per neighbour per sweep, and the load is
// perfectly balanced.
//
// Its role in the comparison is contrast: on this workload message passing
// is at its best (few, large, regular messages amortize the per-message
// software overhead), so the three models finish close together — which
// shows that the large gaps measured on the adaptive applications come from
// adaptivity (irregular fine-grained communication, re-mapping, shifting
// load), not from some intrinsic handicap of a model's runtime.
package stencil

import (
	"o2k/internal/apps"
	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/numa"
	"o2k/internal/sim"
)

// Workload parameterizes the grid relaxation.
type Workload struct {
	N     int // grid is N×N interior points (plus fixed boundary)
	Iters int // Jacobi sweeps
}

// Default returns the standard scaling workload.
func Default() Workload { return Workload{N: 384, Iters: 20} }

// Small returns a reduced workload for unit tests.
func Small() Workload { return Workload{N: 64, Iters: 6} }

// Per-cell floating point work of one Jacobi update.
const cellOps = 5

// rows returns the block of interior rows [lo, hi) owned by proc p of np.
func rows(w Workload, p, np int) (lo, hi int) {
	lo = 1 + p*w.N/np
	hi = 1 + (p+1)*w.N/np
	return
}

// prevOwner returns the nearest lower-ranked processor that owns rows, or
// -1. When np > N some processors own no rows, so halo partners are not
// simply rank±1.
func prevOwner(w Workload, p, np int) int {
	for q := p - 1; q >= 0; q-- {
		if lo, hi := rows(w, q, np); hi > lo {
			return q
		}
	}
	return -1
}

// nextOwner returns the nearest higher-ranked processor that owns rows, or
// -1.
func nextOwner(w Workload, p, np int) int {
	for q := p + 1; q < np; q++ {
		if lo, hi := rows(w, q, np); hi > lo {
			return q
		}
	}
	return -1
}

// boundary returns the fixed boundary value at (i, j) — a hot west edge.
func boundary(w Workload, i, j int) float64 {
	if j == 0 {
		return 1
	}
	return 0
}

// initGrid returns the initial value at (i, j) on the (N+2)² padded grid.
func initGrid(w Workload, i, j int) float64 {
	if i == 0 || j == 0 || i == w.N+1 || j == w.N+1 {
		return boundary(w, i, j)
	}
	return 0
}

// idx maps padded-grid coordinates to the flat array index.
func idx(w Workload, i, j int) int { return i*(w.N+2) + j }

// Run executes the workload under the given model.
func Run(model core.Model, mach *machine.Machine, w Workload) core.Metrics {
	met, _ := runModel(model, mach, w, false)
	return met
}

// TraceRun executes the workload like Run but with phase-timeline tracing
// enabled, returning the processor group for sim.RenderTimeline.
func TraceRun(model core.Model, mach *machine.Machine, w Workload) *sim.Group {
	_, g := runModel(model, mach, w, true)
	return g
}

func runModel(model core.Model, mach *machine.Machine, w Workload, trace bool) (core.Metrics, *sim.Group) {
	return apps.Run(model, mach, trace,
		func(g *sim.Group) core.Metrics { return runMP(mach, w, g) },
		func(g *sim.Group) core.Metrics { return runSHMEM(mach, w, g) },
		func(g *sim.Group) core.Metrics { return runSAS(mach, w, g) })
}

func finish(model core.Model, g *sim.Group, sp *numa.Space, checksum float64, w Workload) core.Metrics {
	// Every model holds the owned rows of both grids; MP adds two halo rows
	// and two message buffers per process, SHMEM two halo rows.
	row := (w.N + 2) * 8
	grids := 2 * (w.N + 2) * row
	return apps.Collect(model, g, sp, checksum, grids+g.Size()*4*row, grids+g.Size()*2*row, grids)
}
