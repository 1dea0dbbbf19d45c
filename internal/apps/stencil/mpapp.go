package stencil

// Message-passing Jacobi: private row blocks plus explicit two-sided halo
// exchange — large contiguous messages, MP's best case.

import (
	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/mp"
	"o2k/internal/numa"
	"o2k/internal/sim"
)

const tagHalo = 21

func runMP(mach *machine.Machine, w Workload, g *sim.Group) core.Metrics {
	np := mach.Procs()
	world := mp.NewWorld(mach)
	sp := numa.NewSpace(mach)
	size := (w.N + 2) * (w.N + 2)
	us := make([]*numa.Array[float64], np)
	vs := make([]*numa.Array[float64], np)
	for q := 0; q < np; q++ {
		us[q] = numa.NewPrivate[float64](sp, q, size)
		vs[q] = numa.NewPrivate[float64](sp, q, size)
	}
	var checksum float64
	g.Run(func(p *sim.Proc) {
		r := world.Rank(p)
		me := r.ID()
		lo, hi := rows(w, me, np)
		up, down := -1, -1
		if hi > lo {
			up = prevOwner(w, me, np)
			down = nextOwner(w, me, np)
		}
		u, v := us[me], vs[me]
		seed(p, w, u, v, lo-1, hi+1)
		rowLen := w.N + 2
		for it := 0; it < w.Iters; it++ {
			sweep(p, mach, w, u, v, lo, hi)
			u, v = v, u
			// Halo exchange with the nearest row-owning neighbours (post the
			// sends first).
			phc := p.SetPhase(sim.PhaseComm)
			if up >= 0 {
				row := make([]float64, rowLen)
				for j := 0; j < rowLen; j++ {
					row[j] = u.Load(p, idx(w, lo, j))
				}
				mp.Send(r, up, tagHalo, row)
			}
			if down >= 0 {
				row := make([]float64, rowLen)
				for j := 0; j < rowLen; j++ {
					row[j] = u.Load(p, idx(w, hi-1, j))
				}
				mp.Send(r, down, tagHalo, row)
			}
			if up >= 0 {
				row := mp.Recv[float64](r, up, tagHalo)
				for j := 0; j < rowLen; j++ {
					u.Store(p, idx(w, lo-1, j), row[j])
				}
			}
			if down >= 0 {
				row := mp.Recv[float64](r, down, tagHalo)
				for j := 0; j < rowLen; j++ {
					u.Store(p, idx(w, hi, j), row[j])
				}
			}
			p.SetPhase(phc)
		}
		cs := mp.Allreduce1(r, ownSum(p, w, u, lo, hi), mp.OpSum)
		if me == 0 {
			checksum = cs
		}
	})
	return finish(core.MP, g, sp, checksum, w)
}
