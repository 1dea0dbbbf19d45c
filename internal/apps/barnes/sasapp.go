package barnes

// Cache-coherent shared-address-space Barnes-Hut: one shared copy of the
// body arrays (first-touch placed by the step-0 cost zones) and of each
// step's tree. Tree construction parallelizes trivially (each processor
// fills its block of cells); force evaluation reads remote bodies and cells
// through the memory system, paying coherence misses where bodies moved —
// there is no exchange phase at all, just barriers.

import (
	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/nbody"
	"o2k/internal/numa"
	"o2k/internal/sas"
	"o2k/internal/sim"
)

type sasState struct {
	x, y, vx, vy, m *numa.Array[float64]
}

func runSAS(mach *machine.Machine, w Workload, plans []*StepPlan, g *sim.Group) core.Metrics {
	sp := numa.NewSpace(mach)
	world := sas.NewWorld(mach, sp)

	st := &sasState{
		x:  sas.NewArray[float64](world, w.N),
		y:  sas.NewArray[float64](world, w.N),
		vx: sas.NewArray[float64](world, w.N),
		vy: sas.NewArray[float64](world, w.N),
		m:  sas.NewArray[float64](world, w.N),
	}
	firstOwner := plans[0].Owner
	place := func(e int) int { return int(firstOwner[e]) }
	st.x.PlaceByElem(place)
	st.y.PlaceByElem(place)
	st.vx.PlaceByElem(place)
	st.vy.PlaceByElem(place)
	st.m.PlaceByElem(place)

	b0 := nbody.NewPlummer(w.N, w.Seed)
	g.Run(func(p *sim.Proc) {
		c := world.Ctx(p)
		own := plans[0].OwnedBodies[c.ID()]
		vals := make([]float64, 5*len(own))
		for k, i := range own {
			vals[5*k] = b0.X[i]
			vals[5*k+1] = b0.Y[i]
			vals[5*k+2] = b0.VX[i]
			vals[5*k+3] = b0.VY[i]
			vals[5*k+4] = b0.M[i]
		}
		numa.ScatterFields(p, []*numa.Array[float64]{st.x, st.y, st.vx, st.vy, st.m}, own, vals)
		c.Barrier()
	})

	var checksum float64
	for _, pl := range plans {
		cells := sas.NewArray[float64](world, 3*pl.Tree.NumCells())
		cells.PlaceBlock()
		g.Run(func(p *sim.Proc) {
			cs := sasStep(world.Ctx(p), mach, w, pl, st, cells)
			if p.ID() == 0 {
				checksum = cs
			}
		})
		// The cell array dies with the step; its write-sets merged at the
		// step's final barrier.
		numa.Release(cells)
	}
	return finishMetrics(core.SAS, g, sp, w, plans, checksum)
}

func sasStep(c *sas.Ctx, mach *machine.Machine, w Workload, pl *StepPlan,
	s *sasState, cells *numa.Array[float64]) float64 {

	me := c.ID()
	p := c.P
	t := pl.Tree

	// --- tree: parallel build — each processor does 1/P of the insertion
	// work and fills its block of the shared cell array.
	chargeOps(p, mach, sim.PhaseTree, treeOps*w.N*treeLevels(w.N)/c.Size())
	phT := p.SetPhase(sim.PhaseTree)
	lo, hi := c.Range(t.NumCells())
	for cc := lo; cc < hi; cc++ {
		cell := &t.Cells[cc]
		cells.StoreRange(p, 3*cc, []float64{cell.CX, cell.CY, cell.CM})
	}
	p.SetPhase(phT)
	c.Barrier()

	// --- partition
	chargePartitionStep(p, mach, w, c.Size())

	// --- force: read bodies and cells straight out of shared memory. The
	// traversal itself is replayed from the plan's precomputed trace.
	p.SetPhase(sim.PhaseCompute)
	own := pl.OwnedBodies[me]
	wp := force(p, mach, pl, own, s.x, s.y, s.m, cells)
	// Everyone must finish reading positions before owners overwrite them.
	c.Barrier()

	// --- update owned bodies in place; the closing barrier publishes the
	// new positions (and invalidates stale cached copies elsewhere).
	leapfrog(p, mach, wp, own, s.x, s.y, s.vx, s.vy)
	c.Barrier()

	return sas.Allreduce1(c, ownSum(p, own, s.x, s.y), sas.OpSum)
}
