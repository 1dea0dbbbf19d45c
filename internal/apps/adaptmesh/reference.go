package adaptmesh

import (
	"o2k/internal/solver"
)

// ReferenceChecksum executes the whole workload sequentially (no machine
// model, no virtual time) and returns the final field digest. A parallel run
// at P=1 must reproduce it bit-for-bit; at P>1 the parallel runs agree with
// it within floating-point reassociation tolerance and with each other
// exactly.
func ReferenceChecksum(w Workload) float64 {
	plans := BuildPlans(w, 1)
	return ReferenceChecksumWithPlans(w, plans)
}

// ReferenceChecksumWithPlans is ReferenceChecksum over prebuilt single-
// processor plans.
func ReferenceChecksumWithPlans(w Workload, plans []*CyclePlan) float64 {
	maxNV := MaxNV(plans)
	u := make([]float64, maxNV)
	aux := make([][]float64, w.AuxFields)
	for k := range aux {
		aux[k] = make([]float64, maxNV)
	}
	for ci, pl := range plans {
		if ci == 0 {
			for _, v := range pl.Dec.OwnedVerts[0] {
				u[v] = w.Front.InitialField(pl.M.VX[v], pl.M.VY[v])
				for k := range aux {
					aux[k][v] = auxInit(k, pl.M.VX[v], pl.M.VY[v])
				}
			}
		} else {
			read := func(x int32) float64 { return u[x] }
			for _, v := range pl.InterpOwned[0] {
				u[v] = pl.InterpValue(v, read)
			}
			for k := range aux {
				ak := aux[k]
				readAux := func(x int32) float64 { return ak[x] }
				for _, v := range pl.InterpOwned[0] {
					ak[v] = pl.InterpValue(v, readAux)
				}
			}
		}
		solver.Reference(pl.M, u[:pl.NV], w.SolveIters)
	}
	// Fold in the same per-vertex order the parallel codes use (u then each
	// auxiliary field at a vertex, vertices ascending) so P=1 runs match
	// bit-for-bit.
	last := plans[len(plans)-1]
	s := 0.0
	for v := 0; v < last.NV; v++ {
		if last.M.VertUsed(int32(v)) {
			s += u[v]
			for k := range aux {
				s += aux[k][v]
			}
		}
	}
	return s
}
