package barnes

// One-sided (SHMEM) Barnes-Hut: the same replicated-data decomposition as
// MP, but the per-step state exchange is a one-sided collect — no matching
// receives, far lower per-transfer overhead — and symmetric allocation
// replaces explicit buffer management.

import (
	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/nbody"
	"o2k/internal/numa"
	"o2k/internal/shm"
	"o2k/internal/sim"
)

type shmState struct {
	x, y, vx, vy, m *shm.Sym[float64]
}

func runSHMEM(mach *machine.Machine, w Workload, plans []*StepPlan, g *sim.Group) core.Metrics {
	sp := numa.NewSpace(mach)
	world := shm.NewWorld(mach, sp)
	b0 := nbody.NewPlummer(w.N, w.Seed)

	st := &shmState{
		x:  shm.AllocWorld[float64](world, w.N),
		y:  shm.AllocWorld[float64](world, w.N),
		vx: shm.AllocWorld[float64](world, w.N),
		vy: shm.AllocWorld[float64](world, w.N),
		m:  shm.AllocWorld[float64](world, w.N),
	}
	g.Run(func(p *sim.Proc) {
		pe := world.PE(p)
		cx, cy := st.x.Local(pe).Cursor(p), st.y.Local(pe).Cursor(p)
		cvx, cvy := st.vx.Local(pe).Cursor(p), st.vy.Local(pe).Cursor(p)
		cm := st.m.Local(pe).Cursor(p)
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
		cells := shm.AllocWorld[float64](world, 3*pl.Tree.NumCells())
		flat := flattenCells(pl.Tree)
		g.Run(func(p *sim.Proc) {
			cs := shmStep(world.PE(p), mach, w, pl, st, cells, flat)
			if p.ID() == 0 {
				checksum = cs
			}
		})
		shm.Free(cells)
	}
	return finishMetrics(core.SHMEM, g, sp, w, plans, checksum)
}

func shmStep(pe *shm.PE, mach *machine.Machine, w Workload, pl *StepPlan,
	s *shmState, cells *shm.Sym[float64], flat []float64) float64 {

	me := pe.ID()
	p := pe.P
	x, y := s.x.Local(pe), s.y.Local(pe)
	vx, vy, m := s.vx.Local(pe), s.vy.Local(pe), s.m.Local(pe)
	cl := cells.Local(pe)

	// --- tree: replicated build into the local symmetric block (one span
	// store: same ascending element order as the per-cell loop).
	chargeOps(p, mach, sim.PhaseTree, treeOps*w.N*treeLevels(w.N))
	phT := p.SetPhase(sim.PhaseTree)
	cl.StoreRange(p, 0, flat)
	p.SetPhase(phT)

	// --- partition
	chargePartitionStep(p, mach, w, pe.Size())

	// --- force: replay the plan's precomputed traversal trace against the
	// local symmetric blocks.
	p.SetPhase(sim.PhaseCompute)
	own := pl.OwnedBodies[me]
	wp := force(p, mach, pl, own, x, y, m, cl)

	// --- update owned bodies.
	leapfrog(p, mach, wp, own, x, y, vx, vy)

	// --- exchange: one-sided collect of the updated state; unpack foreign.
	phC := p.SetPhase(sim.PhaseComm)
	fields := []*numa.Array[float64]{x, y, vx, vy}
	vals := make([]float64, 4*len(own))
	numa.GatherFields(p, fields, own, vals)
	all, offs := shm.Collect(pe, vals)
	for q := 0; q < pe.Size(); q++ {
		if q == me {
			continue
		}
		numa.ScatterFields(p, fields, pl.OwnedBodies[q], all[offs[q]:])
	}
	p.SetPhase(phC)
	pe.Barrier()

	return shm.Allreduce1(pe, ownSum(p, own, x, y), shm.OpSum)
}
