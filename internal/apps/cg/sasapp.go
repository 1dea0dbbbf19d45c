package cg

// Cache-coherent shared-address-space CG: the search direction lives in one
// shared array placed by owner, so the matvec's "ghost" reads are plain
// coherent loads; partial sums flow through a shared contribution buffer;
// reductions use the hardware-assisted tree. No explicit communication code.

import (
	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/numa"
	"o2k/internal/sas"
	"o2k/internal/sim"
)

func runSAS(mach *machine.Machine, w Workload, pl *Plan, g *sim.Group) core.Metrics {
	nprocs := mach.Procs()
	sp := numa.NewSpace(mach)
	world := sas.NewWorld(mach, sp)

	place := func(e int) int {
		if e < pl.NV && pl.Dec.VertOwner[e] >= 0 {
			return int(pl.Dec.VertOwner[e])
		}
		return 0
	}
	pv := sas.NewArray[float64](world, pl.NV) // shared: read across the border
	pv.PlaceByElem(place)
	// x, r, q are owner-private working vectors.
	xs := make([]*numa.Array[float64], nprocs)
	rs := make([]*numa.Array[float64], nprocs)
	qs := make([]*numa.Array[float64], nprocs)
	for i := 0; i < nprocs; i++ {
		xs[i] = numa.NewPrivate[float64](sp, i, pl.NV)
		rs[i] = numa.NewPrivate[float64](sp, i, pl.NV)
		qs[i] = numa.NewPrivate[float64](sp, i, pl.NV)
	}
	// Shared contribution buffer, regions homed on the writer.
	offIn := make([][]int, nprocs)
	total := 0
	for s := 0; s < nprocs; s++ {
		offIn[s] = make([]int, nprocs)
		for t := 0; t < nprocs; t++ {
			offIn[s][t] = total
			total += len(pl.Dec.Border[s][t])
		}
	}
	if total == 0 {
		total = 1
	}
	contrib := sas.NewArray[float64](world, total)
	contrib.PlaceByElem(func(e int) int {
		for s := nprocs - 1; s >= 0; s-- {
			if e >= offIn[s][0] {
				return s
			}
		}
		return 0
	})

	var checksum, rho float64
	g.Run(func(pc *sim.Proc) {
		cs, rh := sasCG(world.Ctx(pc), mach, w, pl, offIn, pv, contrib,
			xs[pc.ID()], rs[pc.ID()], qs[pc.ID()])
		if pc.ID() == 0 {
			checksum, rho = cs, rh
		}
	})
	return finish(core.SAS, g, sp, pl, checksum, rho)
}

func sasCG(c *sas.Ctx, mach *machine.Machine, w Workload, pl *Plan, offIn [][]int,
	pv, contrib, x, rv, q *numa.Array[float64]) (float64, float64) {

	me := c.ID()
	pc := c.P
	dec := pl.Dec

	pc.SetPhase(sim.PhaseCompute)
	part := initVecs(pc, mach, pl, me, x, rv, pv)
	rho := sas.Allreduce1(c, part, sas.OpSum)
	c.Barrier() // publish the initial direction

	for it := 0; it < w.Iters; it++ {
		// Matvec straight off the shared direction vector.
		matvec(pc, mach, pl, me, pv, q)
		for _, dst := range dec.Touches[me] {
			lst := dec.Border[me][dst]
			off := offIn[me][dst]
			for i, vid := range lst {
				contrib.Store(pc, off+i, q.Load(pc, int(vid)))
			}
		}
		c.Barrier()
		for _, src := range dec.TouchedBy[me] {
			lst := dec.Border[src][me]
			off := offIn[src][me]
			for i, vid := range lst {
				q.Store(pc, int(vid), q.Load(pc, int(vid))+contrib.Load(pc, off+i))
			}
		}
		pq := diagDot(pc, mach, w, pl, me, pv, q)
		alpha := rho / sas.Allreduce1(c, pq, sas.OpSum)

		rr := updateXR(pc, mach, pl, me, alpha, x, rv, pv, q)
		rho2 := sas.Allreduce1(c, rr, sas.OpSum)
		beta := rho2 / rho
		rho = rho2
		// Everyone has finished reading the old direction (the matvec is
		// behind two reductions), so owners may overwrite it in place.
		updateP(pc, mach, pl, me, beta, rv, pv)
		c.Barrier() // publish the new direction
	}

	s := sumX(pc, pl, me, x)
	return sas.Allreduce1(c, s, sas.OpSum), rho
}
