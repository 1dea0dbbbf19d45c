// Package adaptmesh is the paper's headline application — a solver over a
// dynamically adapting unstructured mesh — implemented three times, once per
// programming model (MP, SHMEM, CC-SAS), over the shared substrates.
//
// Outer structure (identical in all models):
//
//	for each cycle:
//	    mark    — evaluate the error indicator on owned triangles
//	    refine  — apply the structural mesh adaptation
//	    partition — RCB over the new triangles, PLUM-style remap
//	    remap   — migrate field data to new owners; interpolate new vertices
//	    solve   — SolveIters edge-based relaxation sweeps
//
// What differs per model is every data-movement step: ghost exchanges and
// partial-sum exchanges in the solver, how the adapted structure is made
// globally visible, and how field data migrates — exactly the axes the
// paper compares. All three implementations follow the same deterministic
// accumulation discipline (see partition.Decomp), so at equal processor
// counts they produce bit-identical results; tests enforce this.
package adaptmesh

import "o2k/internal/mesh"

// Workload parameterizes one experiment instance.
type Workload struct {
	GridN      int              // base mesh is GridN×GridN cells (2·GridN² triangles)
	MaxLevel   int              // refinement depth
	Cycles     int              // adaptation cycles
	SolveIters int              // relaxation sweeps per cycle
	Front      mesh.MovingFront // the moving feature driving adaptation
	NoRemap    bool             // disable PLUM remapping (load-balance ablation)

	// AuxFields is the number of passive per-vertex state fields carried
	// alongside the solved field (coordinates of the physical state a real
	// solver drags through every migration and interpolation). They do not
	// feed back into the relaxation, but they triple-or-more the remap
	// payload — the realistic weight of the data-migration phase.
	AuxFields int

	// SasPageMigrate enables OS page migration for the CC-SAS shared field:
	// after each repartition, pages move to their new owners (at the
	// machine's PageMigrateNS cost) instead of staying where first touch
	// left them. This is the locality-vs-migration-cost trade-off the
	// CC-SAS model exposes to the operating system (ablation experiment).
	SasPageMigrate bool
}

// Default returns the standard workload used by the scaling experiments:
// large enough that a 64-processor run has real work per processor, small
// enough to simulate quickly.
func Default() Workload {
	return Workload{
		GridN:      24,
		MaxLevel:   3,
		Cycles:     4,
		SolveIters: 8,
		AuxFields:  2,
		Front:      mesh.DefaultFront(3),
	}
}

// Small returns a reduced workload for unit tests.
func Small() Workload {
	return Workload{
		GridN:      8,
		MaxLevel:   2,
		Cycles:     3,
		SolveIters: 4,
		AuxFields:  2,
		Front:      mesh.DefaultFront(2),
	}
}

// auxInit is the cycle-0 value of auxiliary field k at (x, y). It is linear
// in the coordinates, so midpoint interpolation reproduces it exactly — an
// invariant the tests exploit: after any number of adaptations and
// migrations, aux fields must still equal auxInit at every vertex.
func auxInit(k int, x, y float64) float64 {
	return float64(float64(k+1)*x) + float64(float64(2*k+1)*y)
}
