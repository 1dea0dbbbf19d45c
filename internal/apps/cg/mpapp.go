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
	part := initVecs(pc, mach, pl, me, x, rv, pv)
	rho := mp.Allreduce1(r, part, mp.OpSum)

	for it := 0; it < w.Iters; it++ {
		// Refresh ghost copies of the search direction.
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
			mp.Send(r, dst, tagGhost, vals)
		}
		for _, src := range dec.Touches[me] {
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
			mp.Send(r, dst, tagPartial, vals)
		}
		for _, src := range dec.TouchedBy[me] {
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
		pq := diagDot(pc, mach, w, pl, me, pv, q)
		alpha := rho / mp.Allreduce1(r, pq, mp.OpSum)

		rr := updateXR(pc, mach, pl, me, alpha, x, rv, pv, q)
		rho2 := mp.Allreduce1(r, rr, mp.OpSum)
		beta := rho2 / rho
		rho = rho2
		updateP(pc, mach, pl, me, beta, rv, pv)
	}

	s := sumX(pc, pl, me, x)
	return mp.Allreduce1(r, s, mp.OpSum), rho
}
