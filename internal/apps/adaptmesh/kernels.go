package adaptmesh

// The loops that every model implementation carries alike (MP, SHMEM and
// CC-SAS processors, and the hybrid's lanes): the remap's first-cycle seeding
// and interpolation of new vertices, the solve's edge flux and vertex update,
// and the digest fold. Table 5 does not count this file, as it does not count
// the stencil's kernels.go: the loops are the same in every model, and what a
// model makes a programmer write — migration, ghost values, partial sums — is
// around them.
//
// The two solve kernels charge their accesses with one numa.ChargeLoop of
// index streams and compute over Data(). The call charges exactly the element
// loop of Cursor.Load/Store it names: for edgeFlux, per edge j with a = ea[j]
// and b = eb[j],
//
//	f := solver.Flux(cu.Load(a), cu.Load(b))
//	ca.Store(a, ca.Load(a)+f)
//	ca.Store(b, ca.Load(b)-f)
//
// and for vertexUpdate, per vertex v of owned,
//
//	cu.Store(v, solver.Update(cu.Load(v), ca.Load(v), deg[v]))
//
// with cu bound to u and ca to acc. seedFields charges through
// numa.ScatterFields, interpolate and ownedSum through cursors bound once per
// loop. Their fields are always the solved field, then the auxiliary ones.

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

// seedFields stores the first cycle's values of the vertices of lst: the
// initial solved field into fields[0] and auxiliary field k's into
// fields[1+k].
func seedFields(p *sim.Proc, w Workload, pl *CyclePlan, fields []*numa.Array[float64], lst []int32) {
	nf := len(fields)
	vals := make([]float64, nf*len(lst))
	for i, v := range lst {
		x, y := pl.M.VX[v], pl.M.VY[v]
		vals[nf*i] = w.Front.InitialField(x, y)
		for k := 1; k < nf; k++ {
			vals[nf*i+k] = auxInit(k-1, x, y)
		}
	}
	numa.ScatterFields(p, fields, lst, vals)
}

// interpolate sets every field at each vertex of lst to the value
// InterpValue derives from the field's previously used vertices, one field
// after the other.
func interpolate(p *sim.Proc, pl *CyclePlan, fields []*numa.Array[float64], lst []int32) {
	for _, f := range fields {
		cf := f.Cursor(p)
		read := func(x int32) float64 { return cf.Load(int(x)) }
		for _, v := range lst {
			cf.Store(int(v), pl.InterpValue(v, read))
		}
		cf.Flush()
	}
}

// ownedSum returns the digest share of the vertices of owned: every field's
// value at each vertex, summed vertex by vertex.
func ownedSum(p *sim.Proc, fields []*numa.Array[float64], owned []int32) float64 {
	cf := make([]numa.Cursor[float64], len(fields))
	for k, f := range fields {
		cf[k] = f.Cursor(p)
	}
	s := 0.0
	for _, v := range owned {
		for k := range cf {
			s += cf[k].Load(int(v))
		}
	}
	for k := range cf {
		cf[k].Flush()
	}
	return s
}
