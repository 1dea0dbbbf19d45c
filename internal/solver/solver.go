// Package solver holds the numerical kernel shared by every programming-
// model implementation of the adaptive-mesh application: an explicit,
// edge-based relaxation sweep (the compute phase of each outer cycle), plus
// the sequential reference implementation used to validate the parallel
// codes.
//
// The numerics are deliberately simple — a damped Jacobi/graph-Laplacian
// smoothing of a vertex field — because the paper's comparison is about the
// parallelization structure (irregular gather/scatter over mesh edges), not
// about the PDE. The per-edge/per-vertex operation counts below are what the
// cost model charges for the floating-point work.
package solver

import (
	"o2k/internal/mesh"
)

// Relaxation coefficient of the update u[v] += Damp * resid[v] / deg[v].
const Damp = 0.4

// Operation counts charged to the virtual clock per unit of work. They
// approximate the instruction footprint of an edge-based CFD-style kernel.
const (
	FluxOps   = 6  // per edge: load/sub/two accumulations worth of FP work
	UpdateOps = 5  // per vertex: divide, multiply, add
	InterpOps = 3  // per interpolated (new) vertex
	MarkOps   = 9  // per triangle: error-indicator evaluation
	ApplyOps  = 24 // per structural change applied to the mesh object
	PartOps   = 14 // per triangle per RCB level: comparison sort work
)

// Flux returns the edge flux for endpoint values ua, ub: the contribution
// added to a and subtracted from b. Shared by all models so the arithmetic
// is bit-identical.
func Flux(ua, ub float64) float64 { return ub - ua }

// Update returns the new vertex value given its residual and degree.
func Update(u, resid float64, deg int32) float64 {
	return u + Damp*resid/float64(deg)
}

// Degrees returns the edge-degree of every global vertex ID in snapshot m
// (zero for unused vertices).
func Degrees(m *mesh.Mesh) []int32 {
	deg := make([]int32, m.NumVertsTotal())
	for _, e := range m.Edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	return deg
}

// Reference runs iters sequential relaxation sweeps over snapshot m,
// modifying u in place (indexed by global vertex ID). Accumulation order is
// ascending edge order then ascending vertex order — identical to a P=1
// parallel run, and within roundoff of any P.
func Reference(m *mesh.Mesh, u []float64, iters int) {
	deg := Degrees(m)
	acc := make([]float64, len(u))
	for it := 0; it < iters; it++ {
		for i := range acc {
			acc[i] = 0
		}
		for _, e := range m.Edges {
			a, b := e[0], e[1]
			f := Flux(u[a], u[b])
			acc[a] += f
			acc[b] -= f
		}
		for v := range u {
			if deg[v] > 0 && m.VertUsed(int32(v)) {
				u[v] = Update(u[v], acc[v], deg[v])
			}
		}
	}
}
