package stencil

// Cache-coherent shared-address-space Jacobi: two shared buffers placed by
// row owner; halo rows arrive through coherent loads, so the only explicit
// operation is the barrier between sweeps.

import (
	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/numa"
	"o2k/internal/sas"
	"o2k/internal/sim"
)

func runSAS(mach *machine.Machine, w Workload, g *sim.Group) core.Metrics {
	np := mach.Procs()
	sp := numa.NewSpace(mach)
	world := sas.NewWorld(mach, sp)
	size := (w.N + 2) * (w.N + 2)
	uA := sas.NewArray[float64](world, size)
	vA := sas.NewArray[float64](world, size)
	place := func(e int) int {
		i := e / (w.N + 2)
		if i < 1 {
			i = 1
		}
		if i > w.N {
			i = w.N
		}
		return (i - 1) * np / w.N
	}
	uA.PlaceByElem(place)
	vA.PlaceByElem(place)
	var checksum float64
	g.Run(func(p *sim.Proc) {
		c := world.Ctx(p)
		me := c.ID()
		lo, hi := rows(w, me, np)
		// Owners seed their rows; proc 0 and np-1 seed the boundary rows.
		r0, r1 := lo, hi
		if me == 0 {
			r0 = 0
		}
		if me == np-1 {
			r1 = w.N + 2
		}
		seed(p, w, uA, vA, r0, r1)
		c.Barrier()
		bufs := [2]*numa.Array[float64]{uA, vA}
		cur := 0
		for it := 0; it < w.Iters; it++ {
			sweep(p, mach, w, bufs[cur], bufs[1-cur], lo, hi)
			cur = 1 - cur
			c.Barrier() // publish this sweep before neighbours read the halo
		}
		cs := sas.Allreduce1(c, ownSum(p, w, bufs[cur], lo, hi), sas.OpSum)
		if me == 0 {
			checksum = cs
		}
	})
	return finish(core.SAS, g, sp, checksum, w)
}
