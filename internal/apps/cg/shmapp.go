package cg

// One-sided CG: ghost refresh by indexed puts straight into neighbours'
// direction vectors, partial sums through a symmetric staging buffer, and
// barrier completion. Reductions use the SHMEM collective tree.

import (
	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/numa"
	"o2k/internal/shm"
	"o2k/internal/sim"
)

func runSHMEM(mach *machine.Machine, w Workload, pl *Plan, g *sim.Group) core.Metrics {
	nprocs := mach.Procs()
	world := shm.NewWorld(mach, numa.NewSpace(mach))
	x := shm.AllocWorld[float64](world, pl.NV)
	rv := shm.AllocWorld[float64](world, pl.NV)
	pv := shm.AllocWorld[float64](world, pl.NV)
	q := shm.AllocWorld[float64](world, pl.NV)
	// Contribution staging: region per (writer, owner) pair.
	offIn := make([][]int, nprocs)
	inLen := 0
	for t := 0; t < nprocs; t++ {
		offIn[t] = make([]int, nprocs)
		off := 0
		for s := 0; s < nprocs; s++ {
			offIn[t][s] = off
			off += len(pl.Dec.Border[s][t])
		}
		if off > inLen {
			inLen = off
		}
	}
	if inLen == 0 {
		inLen = 1
	}
	contrib := shm.AllocWorld[float64](world, inLen)

	var checksum, rho float64
	g.Run(func(pc *sim.Proc) {
		cs, rh := shmCG(world.PE(pc), mach, w, pl, offIn, x, rv, pv, q, contrib)
		if pc.ID() == 0 {
			checksum, rho = cs, rh
		}
	})
	return finish(core.SHMEM, g, world.Sp, pl, checksum, rho)
}

func shmCG(pe *shm.PE, mach *machine.Machine, w Workload, pl *Plan, offIn [][]int,
	xS, rS, pS, qS, contrib *shm.Sym[float64]) (float64, float64) {

	me := pe.ID()
	pc := pe.P
	dec := pl.Dec
	x, rv, pv, q := xS.Local(pe), rS.Local(pe), pS.Local(pe), qS.Local(pe)
	contribL := contrib.Local(pe)

	pc.SetPhase(sim.PhaseCompute)
	part := initVecs(pc, mach, pl, me, x, rv, pv)
	rho := shm.Allreduce1(pe, part, shm.OpSum)

	for it := 0; it < w.Iters; it++ {
		// Push my owned direction values into the neighbours' copies.
		phc := pc.SetPhase(sim.PhaseComm)
		for _, dst := range dec.TouchedBy[me] {
			lst := dec.Border[dst][me]
			if len(lst) == 0 {
				continue
			}
			vals := make([]float64, len(lst))
			for i, vid := range lst {
				vals[i] = pv.Load(pc, int(vid))
			}
			shm.PutIdx(pe, pS, dst, lst, vals)
		}
		pc.SetPhase(phc)
		pe.Barrier()

		// Matvec.
		matvec(pc, mach, pl, me, pv, q)
		phc = pc.SetPhase(sim.PhaseComm)
		for _, dst := range dec.Touches[me] {
			lst := dec.Border[me][dst]
			if len(lst) == 0 {
				continue
			}
			vals := make([]float64, len(lst))
			for i, vid := range lst {
				vals[i] = q.Load(pc, int(vid))
			}
			shm.Put(pe, contrib, dst, offIn[dst][me], vals)
		}
		pc.SetPhase(phc)
		pe.Barrier()
		for _, src := range dec.TouchedBy[me] {
			lst := dec.Border[src][me]
			off := offIn[me][src]
			for i, vid := range lst {
				q.Store(pc, int(vid), q.Load(pc, int(vid))+contribL.Load(pc, off+i))
			}
		}
		pq := diagDot(pc, mach, w, pl, me, pv, q)
		alpha := rho / shm.Allreduce1(pe, pq, shm.OpSum)

		rr := updateXR(pc, mach, pl, me, alpha, x, rv, pv, q)
		rho2 := shm.Allreduce1(pe, rr, shm.OpSum)
		beta := rho2 / rho
		rho = rho2
		updateP(pc, mach, pl, me, beta, rv, pv)
	}

	s := sumX(pc, pl, me, x)
	return shm.Allreduce1(pe, s, shm.OpSum), rho
}
