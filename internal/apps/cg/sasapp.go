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
	part := 0.0
	for _, vid := range dec.OwnedVerts[me] {
		b := pl.B[vid]
		rv.Store(pc, int(vid), b)
		pv.Store(pc, int(vid), b)
		x.Store(pc, int(vid), 0)
		part += b * b
		chargeOps(pc, mach, dotOps)
	}
	rho := sas.Allreduce1(c, part, sas.OpSum)
	c.Barrier() // publish the initial direction

	for it := 0; it < w.Iters; it++ {
		// Matvec straight off the shared direction vector.
		for _, vid := range pl.Clear[me] {
			q.Store(pc, int(vid), 0)
		}
		for _, e := range dec.OwnedEdges[me] {
			a, b := pl.M.Edges[e][0], pl.M.Edges[e][1]
			q.Store(pc, int(a), q.Load(pc, int(a))-pv.Load(pc, int(b)))
			q.Store(pc, int(b), q.Load(pc, int(b))-pv.Load(pc, int(a)))
			chargeOps(pc, mach, matvecOps)
		}
		for dst := 0; dst < c.Size(); dst++ {
			lst := dec.Border[me][dst]
			off := offIn[me][dst]
			for i, vid := range lst {
				contrib.Store(pc, off+i, q.Load(pc, int(vid)))
			}
		}
		c.Barrier()
		for src := 0; src < c.Size(); src++ {
			lst := dec.Border[src][me]
			off := offIn[src][me]
			for i, vid := range lst {
				q.Store(pc, int(vid), q.Load(pc, int(vid))+contrib.Load(pc, off+i))
			}
		}
		pq := 0.0
		for _, vid := range dec.OwnedVerts[me] {
			qa := q.Load(pc, int(vid)) + pl.Diag(w, vid)*pv.Load(pc, int(vid))
			q.Store(pc, int(vid), qa)
			pq += pv.Load(pc, int(vid)) * qa
			chargeOps(pc, mach, diagOps+dotOps)
		}
		alpha := rho / sas.Allreduce1(c, pq, sas.OpSum)

		rr := 0.0
		for _, vid := range dec.OwnedVerts[me] {
			x.Store(pc, int(vid), x.Load(pc, int(vid))+alpha*pv.Load(pc, int(vid)))
			nr := rv.Load(pc, int(vid)) - alpha*q.Load(pc, int(vid))
			rv.Store(pc, int(vid), nr)
			rr += nr * nr
			chargeOps(pc, mach, 2*axpyOps+dotOps)
		}
		rho2 := sas.Allreduce1(c, rr, sas.OpSum)
		beta := rho2 / rho
		rho = rho2
		// Everyone has finished reading the old direction (the matvec is
		// behind two reductions), so owners may overwrite it in place.
		for _, vid := range dec.OwnedVerts[me] {
			pv.Store(pc, int(vid), rv.Load(pc, int(vid))+beta*pv.Load(pc, int(vid)))
			chargeOps(pc, mach, axpyOps)
		}
		c.Barrier() // publish the new direction
	}

	s := 0.0
	for _, vid := range dec.OwnedVerts[me] {
		s += x.Load(pc, int(vid))
	}
	return sas.Allreduce1(c, s, sas.OpSum), rho
}
