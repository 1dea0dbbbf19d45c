package cg

// Message-passing CG: private vectors, explicit ghost exchange of the search
// direction before each matvec, explicit partial-sum exchange after it, and
// two blocking allreduces per iteration for the dot products — the
// reduction-latency profile that dominates MP CG at scale.

import (
	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/mp"
	"o2k/internal/numa"
	"o2k/internal/sim"
)

const (
	tagGhost   = 31
	tagPartial = 32
)

func runMP(mach *machine.Machine, w Workload, pl *Plan, g *sim.Group) core.Metrics {
	nprocs := mach.Procs()
	world := mp.NewWorld(mach)
	sp := numa.NewSpace(mach)
	vecs := make([][4]*numa.Array[float64], nprocs) // x, r, p, q per rank
	for q := 0; q < nprocs; q++ {
		for k := 0; k < 4; k++ {
			vecs[q][k] = numa.NewPrivate[float64](sp, q, pl.NV)
		}
	}
	var checksum, rho float64
	g.Run(func(pc *sim.Proc) {
		cs, rh := mpCG(world.Rank(pc), mach, w, pl, vecs[pc.ID()])
		if pc.ID() == 0 {
			checksum, rho = cs, rh
		}
	})
	return finish(core.MP, g, sp, pl, checksum, rho)
}

func mpCG(r *mp.Rank, mach *machine.Machine, w Workload, pl *Plan,
	v [4]*numa.Array[float64]) (float64, float64) {

	me := r.ID()
	pc := r.P
	dec := pl.Dec
	x, rv, pv, q := v[0], v[1], v[2], v[3]

	// Init: x = 0, r = p = b over owned vertices.
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
	rho := mp.Allreduce1(r, part, mp.OpSum)

	for it := 0; it < w.Iters; it++ {
		// Refresh ghost copies of the search direction.
		phc := pc.SetPhase(sim.PhaseComm)
		for dst := 0; dst < r.Size(); dst++ {
			lst := dec.Border[dst][me]
			if len(lst) == 0 {
				continue
			}
			vals := make([]float64, len(lst))
			for i, vid := range lst {
				vals[i] = pv.Load(pc, int(vid))
			}
			mp.Send(r, dst, tagGhost, vals)
		}
		for src := 0; src < r.Size(); src++ {
			lst := dec.Border[me][src]
			if len(lst) == 0 {
				continue
			}
			vals := mp.Recv[float64](r, src, tagGhost)
			for i, vid := range lst {
				pv.Store(pc, int(vid), vals[i])
			}
		}
		pc.SetPhase(phc)

		// Matvec: q = A p via owned edges plus partial exchange.
		for _, vid := range pl.Clear[me] {
			q.Store(pc, int(vid), 0)
		}
		for _, e := range dec.OwnedEdges[me] {
			a, b := pl.M.Edges[e][0], pl.M.Edges[e][1]
			q.Store(pc, int(a), q.Load(pc, int(a))-pv.Load(pc, int(b)))
			q.Store(pc, int(b), q.Load(pc, int(b))-pv.Load(pc, int(a)))
			chargeOps(pc, mach, matvecOps)
		}
		phc = pc.SetPhase(sim.PhaseComm)
		for dst := 0; dst < r.Size(); dst++ {
			lst := dec.Border[me][dst]
			if len(lst) == 0 {
				continue
			}
			vals := make([]float64, len(lst))
			for i, vid := range lst {
				vals[i] = q.Load(pc, int(vid))
			}
			mp.Send(r, dst, tagPartial, vals)
		}
		for src := 0; src < r.Size(); src++ {
			lst := dec.Border[src][me]
			if len(lst) == 0 {
				continue
			}
			vals := mp.Recv[float64](r, src, tagPartial)
			for i, vid := range lst {
				q.Store(pc, int(vid), q.Load(pc, int(vid))+vals[i])
			}
		}
		pc.SetPhase(phc)
		pq := 0.0
		for _, vid := range dec.OwnedVerts[me] {
			qa := q.Load(pc, int(vid)) + pl.Diag(w, vid)*pv.Load(pc, int(vid))
			q.Store(pc, int(vid), qa)
			pq += pv.Load(pc, int(vid)) * qa
			chargeOps(pc, mach, diagOps+dotOps)
		}
		alpha := rho / mp.Allreduce1(r, pq, mp.OpSum)

		rr := 0.0
		for _, vid := range dec.OwnedVerts[me] {
			x.Store(pc, int(vid), x.Load(pc, int(vid))+alpha*pv.Load(pc, int(vid)))
			nr := rv.Load(pc, int(vid)) - alpha*q.Load(pc, int(vid))
			rv.Store(pc, int(vid), nr)
			rr += nr * nr
			chargeOps(pc, mach, 2*axpyOps+dotOps)
		}
		rho2 := mp.Allreduce1(r, rr, mp.OpSum)
		beta := rho2 / rho
		rho = rho2
		for _, vid := range dec.OwnedVerts[me] {
			pv.Store(pc, int(vid), rv.Load(pc, int(vid))+beta*pv.Load(pc, int(vid)))
			chargeOps(pc, mach, axpyOps)
		}
	}

	s := 0.0
	for _, vid := range dec.OwnedVerts[me] {
		s += x.Load(pc, int(vid))
	}
	return mp.Allreduce1(r, s, mp.OpSum), rho
}
