package barnes

// Message-passing Barnes-Hut: the classic replicated-data organization.
// Every rank keeps a full private copy of the body arrays and the tree's
// centre-of-mass data; each step it rebuilds the (replicated) tree, computes
// forces for its cost-zone, integrates its bodies, and allgathers the
// updated body state so every rank is again globally consistent.

import (
	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/mp"
	"o2k/internal/nbody"
	"o2k/internal/numa"
	"o2k/internal/sim"
)

type mpState struct {
	x, y, vx, vy, m *numa.Array[float64]
}

func runMP(mach *machine.Machine, w Workload, plans []*StepPlan, g *sim.Group) core.Metrics {
	nprocs := mach.Procs()
	world := mp.NewWorld(mach)
	sp := numa.NewSpace(mach)
	b0 := nbody.NewPlummer(w.N, w.Seed)

	st := make([]*mpState, nprocs)
	for q := 0; q < nprocs; q++ {
		st[q] = &mpState{
			x:  numa.NewPrivate[float64](sp, q, w.N),
			y:  numa.NewPrivate[float64](sp, q, w.N),
			vx: numa.NewPrivate[float64](sp, q, w.N),
			vy: numa.NewPrivate[float64](sp, q, w.N),
			m:  numa.NewPrivate[float64](sp, q, w.N),
		}
	}

	// Replicated initialization: every rank fills its full copy.
	g.Run(func(p *sim.Proc) {
		s := st[p.ID()]
		cx, cy := s.x.Cursor(p), s.y.Cursor(p)
		cvx, cvy := s.vx.Cursor(p), s.vy.Cursor(p)
		cm := s.m.Cursor(p)
		for i := 0; i < w.N; i++ {
			cx.Store(i, b0.X[i])
			cy.Store(i, b0.Y[i])
			cvx.Store(i, b0.VX[i])
			cvy.Store(i, b0.VY[i])
			cm.Store(i, b0.M[i])
		}
		cx.Flush()
		cy.Flush()
		cvx.Flush()
		cvy.Flush()
		cm.Flush()
	})

	var checksum float64
	for _, pl := range plans {
		cells := make([]*numa.Array[float64], nprocs)
		for q := 0; q < nprocs; q++ {
			cells[q] = numa.NewPrivate[float64](sp, q, 3*pl.Tree.NumCells())
		}
		// The cell centre-of-mass values are identical on every rank; flatten
		// them once host-side so each rank stores them as one range.
		flat := flattenCells(pl.Tree)
		g.Run(func(p *sim.Proc) {
			cs := mpStep(world.Rank(p), mach, w, pl, st[p.ID()], cells[p.ID()], flat)
			if p.ID() == 0 {
				checksum = cs
			}
		})
		for q := 0; q < nprocs; q++ {
			numa.Release(cells[q])
		}
	}
	return finishMetrics(core.MP, g, sp, w, plans, checksum)
}

// flattenCells packs the tree's centre-of-mass records as (cx, cy, cm)
// triples — the value stream every replicated-tree store loop writes.
func flattenCells(t *nbody.Tree) []float64 {
	flat := make([]float64, 3*t.NumCells())
	for c := 0; c < t.NumCells(); c++ {
		cc := &t.Cells[c]
		flat[3*c] = cc.CX
		flat[3*c+1] = cc.CY
		flat[3*c+2] = cc.CM
	}
	return flat
}

func mpStep(r *mp.Rank, mach *machine.Machine, w Workload, pl *StepPlan,
	s *mpState, cells *numa.Array[float64], flat []float64) float64 {

	me := r.ID()
	p := r.P

	// --- tree: replicated build — every rank inserts every body and stores
	// every cell's centre of mass (one span store: same ascending element
	// order as the per-cell loop).
	chargeOps(p, mach, sim.PhaseTree, treeOps*w.N*treeLevels(w.N))
	phT := p.SetPhase(sim.PhaseTree)
	cells.StoreRange(p, 0, flat)
	p.SetPhase(phT)

	// --- partition
	chargePartitionStep(p, mach, w, r.Size())

	// --- force: replay the plan's precomputed traversal trace, charging each
	// load against this rank's private copies.
	p.SetPhase(sim.PhaseCompute)
	own := pl.OwnedBodies[me]
	wp := force(p, mach, pl, own, s.x, s.y, s.m, cells)

	// --- update owned bodies (leapfrog).
	leapfrog(p, mach, wp, own, s.x, s.y, s.vx, s.vy)

	// --- exchange: allgather updated body state; unpack foreign entries.
	phC := p.SetPhase(sim.PhaseComm)
	fields := []*numa.Array[float64]{s.x, s.y, s.vx, s.vy}
	vals := make([]float64, 4*len(own))
	numa.GatherFields(p, fields, own, vals)
	all, offs := mp.Allgatherv(r, vals)
	for q := 0; q < r.Size(); q++ {
		if q == me {
			continue
		}
		numa.ScatterFields(p, fields, pl.OwnedBodies[q], all[offs[q]:])
	}
	p.SetPhase(phC)

	return mp.Allreduce1(r, ownSum(p, own, s.x, s.y), mp.OpSum)
}
