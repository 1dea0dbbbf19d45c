// Package barnes is the study's second adaptive application: a Barnes-Hut
// N-body simulation implemented under MP, SHMEM, and CC-SAS. Its phase
// structure per time step —
//
//	tree      — build the quadtree and centres of mass
//	partition — cost-zones repartition from last step's interaction counts
//	force     — tree-walk force evaluation for owned bodies (dominant)
//	update    — leapfrog integration of owned bodies
//	exchange  — make updated body state visible to all processors
//
// — stresses a different adaptivity axis than the mesh code: the *work per
// element* (interactions per body) is what shifts between processors, and
// the all-to-all visibility of body positions is what each model must
// provide (allgather for MP, one-sided collect for SHMEM, plain coherent
// loads for CC-SAS).
//
// All three implementations compute bit-identical trajectories at equal
// processor counts; tests enforce this.
package barnes

import (
	"sync"

	"o2k/internal/nbody"
	"o2k/internal/numa"
)

// Workload parameterizes one experiment instance.
type Workload struct {
	N     int     // bodies
	Steps int     // leapfrog steps
	Theta float64 // Barnes-Hut opening angle
	Seed  int64
}

// Default returns the standard scaling workload.
func Default() Workload {
	return Workload{N: 6144, Steps: 5, Theta: nbody.ThetaBH, Seed: 1}
}

// Small returns a reduced workload for unit tests.
func Small() Workload {
	return Workload{N: 640, Steps: 3, Theta: nbody.ThetaBH, Seed: 1}
}

// StepPlan is the structural oracle for one time step, derived from the
// deterministic reference simulation that every model reproduces exactly.
type StepPlan struct {
	Tree        *nbody.Tree // structure + reference centre-of-mass values
	Owner       []int32     // per body, this step's cost-zones owner
	OwnedBodies [][]int32   // per proc, ascending body indices
	Inter       []int       // per body, interactions evaluated this step
	Walk        *WalkPlan   // lazy force-walk oracle, shared across processor counts

	loads []procLoads // per processor: its force phase's load footprint
}

// procLoads holds one processor's force-phase load footprint, built on the
// first force phase that asks for it — every model at this processor count
// charges the same one — and never serialized.
type procLoads struct {
	once sync.Once
	fp   *numa.LoadFootprint
}

// forceLoads returns the load footprint of processor me's force phase: each
// of its bodies' symbols in wp's stream, one body after another; nil where wp
// compiled no stream.
func (pl *StepPlan) forceLoads(me int, wp *WalkPlan) *numa.LoadFootprint {
	if wp.lineBytes == 0 {
		return nil
	}
	fl := &pl.loads[me]
	fl.once.Do(func() {
		own := pl.OwnedBodies[me]
		segs := make([][]uint16, len(own))
		for k, i := range own {
			segs[k] = wp.syms[wp.off[i]:wp.off[i+1]]
		}
		fl.fp = numa.NewLoadFootprint(wp.lineBytes, segs...)
	})
	return fl.fp
}
