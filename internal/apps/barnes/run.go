package barnes

import (
	"o2k/internal/apps"
	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/numa"
	"o2k/internal/sim"
)

// Operation counts for the virtual cost model.
const (
	forceOps  = 14 // per interaction: distance, softened inverse-cube, two FMAs
	treeOps   = 26 // per body per tree level during construction
	partOps   = 18 // per body per sort level during cost-zones
	updateOps = 8  // per body leapfrog update
)

// RunWithPlans executes the workload under the given model with its
// precomputed step plans (BuildPlans at mach.Procs(); shareable across models).
func RunWithPlans(model core.Model, mach *machine.Machine, w Workload, plans []*StepPlan) core.Metrics {
	met, _ := runModel(model, mach, w, plans, false)
	return met
}

// TraceRun executes the workload like RunWithPlans but with phase-timeline
// tracing enabled, returning the processor group for sim.RenderTimeline or
// the obs exporters.
func TraceRun(model core.Model, mach *machine.Machine, w Workload, plans []*StepPlan) *sim.Group {
	_, g := runModel(model, mach, w, plans, true)
	return g
}

func runModel(model core.Model, mach *machine.Machine, w Workload, plans []*StepPlan, trace bool) (core.Metrics, *sim.Group) {
	return apps.Run(model, mach, trace,
		func(g *sim.Group) core.Metrics { return runMP(mach, w, plans, g) },
		func(g *sim.Group) core.Metrics { return runSHMEM(mach, w, plans, g) },
		func(g *sim.Group) core.Metrics { return runSAS(mach, w, plans, g) })
}

// chargeOps is apps.ChargeOps under the name the model files call it by:
// they are the files Table 5 counts line by line, imports included.
func chargeOps(p *sim.Proc, mach *machine.Machine, ph sim.Phase, n int) {
	apps.ChargeOps(p, mach, ph, n)
}

// treeLevels approximates the quadtree depth for cost charging.
func treeLevels(n int) int {
	l := 0
	for c := 1; c < n; c *= 4 {
		l++
	}
	if l < 1 {
		l = 1
	}
	return l
}

// chargePartitionStep bills the cost-zones computation: a parallel Morton
// sort with a serial coordination floor, identical across models.
func chargePartitionStep(p *sim.Proc, mach *machine.Machine, w Workload, nprocs int) {
	levels := mach.LogStages(max(w.N, 2))
	ops := (partOps*w.N*levels)/nprocs + 2*w.N
	chargeOps(p, mach, sim.PhasePartition, ops)
}

func finishMetrics(model core.Model, g *sim.Group, sp *numa.Space, w Workload, plans []*StepPlan, checksum float64) core.Metrics {
	met := apps.Collect(model, g, sp, checksum)
	totalInter, maxCells, imb := 0, 0, 1.0
	for _, pl := range plans {
		totalInter += pl.TotalInter
		if pl.Tree.NumCells() > maxCells {
			maxCells = pl.Tree.NumCells()
		}
		if pl.TotalInter > 0 {
			r := float64(pl.MaxProcWork) * float64(g.Size()) / float64(pl.TotalInter)
			if r > imb {
				imb = r
			}
		}
	}
	// Model-visible data memory: the MP and SHMEM codes replicate the body
	// arrays and the tree's centre-of-mass data on every process; CC-SAS
	// stores one shared copy.
	perCopy := (5*w.N + 3*maxCells) * 8
	switch model {
	case core.MP, core.SHMEM:
		met.DataBytes = perCopy * g.Size()
	case core.SAS:
		met.DataBytes = perCopy
	}
	met.Extra["interactions_per_step"] = float64(totalInter) / float64(len(plans))
	met.Extra["tree_cells"] = float64(maxCells)
	met.Extra["max_imbalance"] = imb
	return met
}
