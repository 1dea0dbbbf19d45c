package stencil

// One-sided (SHMEM) Jacobi: symmetric buffers; each PE puts its edge rows
// straight into the neighbours' halo slots, and a barrier completes them.

import (
	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/numa"
	"o2k/internal/shm"
	"o2k/internal/sim"
)

func runSHMEM(mach *machine.Machine, w Workload, g *sim.Group) core.Metrics {
	np := mach.Procs()
	sp := numa.NewSpace(mach)
	world := shm.NewWorld(mach, sp)
	size := (w.N + 2) * (w.N + 2)
	uS := shm.AllocWorld[float64](world, size)
	vS := shm.AllocWorld[float64](world, size)
	var checksum float64
	g.Run(func(p *sim.Proc) {
		pe := world.PE(p)
		me := pe.ID()
		lo, hi := rows(w, me, np)
		up, down := -1, -1
		if hi > lo {
			up = prevOwner(w, me, np)
			down = nextOwner(w, me, np)
		}
		bufs := [2]*shm.Sym[float64]{uS, vS}
		cur := 0
		seed(p, w, uS.Local(pe), vS.Local(pe), lo-1, hi+1)
		pe.Barrier()
		rowLen := w.N + 2
		for it := 0; it < w.Iters; it++ {
			u, v := bufs[cur].Local(pe), bufs[1-cur].Local(pe)
			sweep(p, mach, w, u, v, lo, hi)
			cur = 1 - cur
			// Push my edge rows straight into the neighbours' halo slots.
			phc := p.SetPhase(sim.PhaseComm)
			nu := bufs[cur]
			nuL := nu.Local(pe)
			if up >= 0 {
				row := make([]float64, rowLen)
				for j := 0; j < rowLen; j++ {
					row[j] = nuL.Load(p, idx(w, lo, j))
				}
				shm.Put(pe, nu, up, idx(w, lo, 0), row)
			}
			if down >= 0 {
				row := make([]float64, rowLen)
				for j := 0; j < rowLen; j++ {
					row[j] = nuL.Load(p, idx(w, hi-1, j))
				}
				shm.Put(pe, nu, down, idx(w, hi-1, 0), row)
			}
			p.SetPhase(phc)
			pe.Barrier()
		}
		u := bufs[cur].Local(pe)
		cs := shm.Allreduce1(pe, ownSum(p, w, u, lo, hi), shm.OpSum)
		if me == 0 {
			checksum = cs
		}
	})
	return finish(core.SHMEM, g, sp, checksum, w)
}
