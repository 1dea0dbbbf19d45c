// Package cg is the fourth application of the comparison: a conjugate-
// gradient solve of a shifted graph-Laplacian system over the (refined,
// irregular, but statically partitioned) unstructured mesh. Its
// communication signature completes the application mix:
//
//	stencil   — regular, bandwidth-bound halo exchange
//	adaptmesh — irregular AND dynamic (remapping, structure distribution)
//	barnes    — dynamic work distribution, all-to-all state visibility
//	cg        — irregular matvec plus two *latency-bound global reductions
//	            per iteration*: at scale, CG lives or dies on allreduce cost
//
// Each iteration performs one edge-based matvec (gather/scatter over the
// mesh, like the relaxation solver), two dot products (rank-ordered
// reductions, so results are bit-identical across models at equal P), and
// three vector updates. The matrix is A = sigma·I + L (L the graph
// Laplacian): symmetric positive definite, so CG genuinely converges — the
// tests check the residual drop against the sequential reference.
package cg

import (
	"fmt"

	"o2k/internal/mesh"
	"o2k/internal/partition"
	"o2k/internal/planio"
	"o2k/internal/solver"
)

// Schema strings versioning the persistent plan-cache payloads for this app;
// they are folded into the cache keys, so a format change retires old entries.
const (
	MeshSchema = "o2kcgmesh/1"
	PlanSchema = "o2kcgplan/1"
)

// Workload parameterizes the CG experiment.
type Workload struct {
	GridN    int     // base mesh dimension
	MaxLevel int     // refinement depth (one adapt pass makes it irregular)
	Iters    int     // CG iterations (fixed count: deterministic)
	Sigma    float64 // diagonal shift of A = sigma·I + Laplacian
}

// Default returns the standard scaling workload.
func Default() Workload {
	return Workload{GridN: 24, MaxLevel: 3, Iters: 25, Sigma: 1.0}
}

// Small returns a reduced workload for unit tests.
func Small() Workload {
	return Workload{GridN: 8, MaxLevel: 2, Iters: 10, Sigma: 1.0}
}

// Plan is the static structure of a CG run: one refined snapshot, its
// decomposition, and the accumulator clear lists — the same deterministic
// discipline as the adaptive-mesh application, without the per-cycle churn.
type Plan struct {
	M     *mesh.Mesh
	Dec   *partition.Decomp
	Deg   []int32
	NV    int
	Clear [][]int32 // per proc: owned + touched vertices, ascending
	B     []float64 // right-hand side by global vertex ID (zero if unused)

	// EdgeA/EdgeB[p] are the endpoint vertex IDs of p's owned edges,
	// index-aligned with Dec.OwnedEdges[p]: the matvec's index lists
	// (Decomp.SweepLists, like Clear). Derived, not encoded.
	EdgeA, EdgeB [][]int32
}

// BuildMesh constructs the refined snapshot — the processor-count-independent
// half of plan construction, shared by every P of a scaling sweep.
func BuildMesh(w Workload) *mesh.Mesh {
	f := mesh.NewUnitSquare(w.GridN, w.MaxLevel)
	f.Adapt(mesh.DefaultFront(w.MaxLevel).At(0))
	return f.Snapshot()
}

// PlanForMesh partitions snapshot m for nprocs processors and derives the
// full plan.
func PlanForMesh(w Workload, m *mesh.Mesh, nprocs int) *Plan {
	nt := m.NumTris()
	xs := make([]float64, nt)
	ys := make([]float64, nt)
	wt := make([]float64, nt)
	for t := 0; t < nt; t++ {
		xs[t], ys[t] = m.Centroid(t)
		wt[t] = 1
	}
	dec := partition.NewDecomp(m, partition.RCB(xs, ys, wt, nprocs), nprocs)
	return planFromDecomp(w, m, dec)
}

// planFromDecomp derives the full plan from a decomposition — everything
// downstream of the partitioning decision is deterministic in (mesh, owner),
// which is why the plan cache stores just the owner vector and replays this
// derivation on warm runs.
func planFromDecomp(w Workload, m *mesh.Mesh, dec *partition.Decomp) *Plan {
	p := &Plan{
		M:   m,
		Dec: dec,
		Deg: solver.Degrees(m),
		NV:  m.NumVertsTotal(),
	}
	p.Clear, p.EdgeA, p.EdgeB = dec.SweepLists()
	// Right-hand side: the moving-front bump (anything nonzero and smooth).
	front := mesh.DefaultFront(w.MaxLevel)
	p.B = make([]float64, p.NV)
	for v := 0; v < p.NV; v++ {
		if m.VertUsed(int32(v)) {
			p.B[v] = front.InitialField(m.VX[v], m.VY[v])
		}
	}
	return p
}

// EncodePlan serializes the per-processor-count half of a plan: the
// partitioning decision the rest is derived from.
//
//	o2kcgplan 1
//	<decomp>
func EncodePlan(p *Plan) []byte {
	var pw planio.Writer
	pw.Word("o2kcgplan")
	pw.Int(1)
	pw.End()
	p.Dec.AppendTo(&pw)
	return pw.Bytes()
}

// DecodePlan rebuilds a plan from EncodePlan output by replaying the
// derivation against snapshot m. Any mismatch with the mesh or the requested
// processor count is an error, which the cache layer converts into a
// recomputation.
func DecodePlan(data []byte, w Workload, m *mesh.Mesh, nprocs int) (*Plan, error) {
	s := planio.NewScanner(data)
	s.Expect("o2kcgplan")
	if v := s.Int(); s.Err() == nil && v != 1 {
		return nil, fmt.Errorf("cg: unsupported plan version %d", v)
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	dec, err := partition.DecodeDecompFrom(s, m)
	if err != nil {
		return nil, err
	}
	if dec.P != nprocs {
		return nil, fmt.Errorf("cg: plan entry is for P=%d, want P=%d", dec.P, nprocs)
	}
	s.Done()
	if err := s.Err(); err != nil {
		return nil, err
	}
	return planFromDecomp(w, m, dec), nil
}

// Diag returns the diagonal entry of A at vertex v.
func (p *Plan) Diag(w Workload, v int32) float64 {
	return w.Sigma + float64(p.Deg[v])
}
