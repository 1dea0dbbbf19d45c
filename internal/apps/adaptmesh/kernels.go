package adaptmesh

// The solve's two loops, shared by the four model implementations (MP, SHMEM
// and CC-SAS processors, and the hybrid's lanes): the edge flux and the
// vertex update. Table 5 does not count this file, as it does not count the
// stencil's models.go: the loops are the same in every model, and what a
// model makes a programmer write is around them.
//
// Each kernel charges its accesses with one numa.ChargeLoop of index streams
// and computes over Data(). The call charges exactly the element loop of
// Cursor.Load/Store it names: for edgeFlux, per edge j with a = ea[j] and
// b = eb[j],
//
//	f := solver.Flux(cu.Load(a), cu.Load(b))
//	ca.Store(a, ca.Load(a)+f)
//	ca.Store(b, ca.Load(b)-f)
//
// and for vertexUpdate, per vertex v of owned,
//
//	cu.Store(v, solver.Update(cu.Load(v), ca.Load(v), deg[v]))
//
// with cu bound to u and ca to acc.

import (
	"o2k/internal/machine"
	"o2k/internal/numa"
	"o2k/internal/sim"
	"o2k/internal/solver"
)

// edgeFlux charges and computes one flux sweep over the edges (ea[j], eb[j]),
// accumulating into acc.
func edgeFlux(p *sim.Proc, mach *machine.Machine, u, acc *numa.Array[float64], ea, eb []int32) {
	cu, ca := u.Cursor(p), acc.Cursor(p)
	numa.ChargeLoop(0, len(ea),
		numa.Stream[float64]{C: &cu, Idx: ea},
		numa.Stream[float64]{C: &cu, Idx: eb},
		numa.Stream[float64]{C: &ca, Idx: ea},
		numa.Stream[float64]{C: &ca, Idx: ea, Write: true},
		numa.Stream[float64]{C: &ca, Idx: eb},
		numa.Stream[float64]{C: &ca, Idx: eb, Write: true})
	du, da := u.Data(), acc.Data()
	for j, a := range ea {
		b := eb[j]
		f := solver.Flux(du[a], du[b])
		da[a] += f
		da[b] -= f
	}
	cu.Flush()
	ca.Flush()
	p.Advance(sim.Time(len(ea)*solver.FluxOps) * mach.Cfg.OpNS)
}

// vertexUpdate charges and computes the update of every vertex of owned from
// its accumulated flux.
func vertexUpdate(p *sim.Proc, mach *machine.Machine, u, acc *numa.Array[float64], owned, deg []int32) {
	cu, ca := u.Cursor(p), acc.Cursor(p)
	numa.ChargeLoop(0, len(owned),
		numa.Stream[float64]{C: &cu, Idx: owned},
		numa.Stream[float64]{C: &ca, Idx: owned},
		numa.Stream[float64]{C: &cu, Idx: owned, Write: true})
	du, da := u.Data(), acc.Data()
	for _, v := range owned {
		du[v] = solver.Update(du[v], da[v], deg[v])
	}
	cu.Flush()
	ca.Flush()
	p.Advance(sim.Time(len(owned)*solver.UpdateOps) * mach.Cfg.OpNS)
}
