package cg

import (
	"o2k/internal/apps"
	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/numa"
	"o2k/internal/sim"
)

// Operation counts for the virtual cost model.
const (
	matvecOps = 4 // per edge: two gathers, two accumulations
	diagOps   = 3 // per owned vertex: diagonal term
	axpyOps   = 4 // per owned vertex per vector update
	dotOps    = 2 // per owned vertex per dot product
)

// RunWithPlan executes the CG workload under the given model with its
// precomputed plan (BuildPlan at mach.Procs(); shareable across models).
func RunWithPlan(model core.Model, mach *machine.Machine, w Workload, p *Plan) core.Metrics {
	met, _ := runModel(model, mach, w, p, false)
	return met
}

// TraceRun executes the workload like RunWithPlan but with phase-timeline
// tracing enabled, returning the processor group for sim.RenderTimeline.
func TraceRun(model core.Model, mach *machine.Machine, w Workload, p *Plan) *sim.Group {
	_, g := runModel(model, mach, w, p, true)
	return g
}

func runModel(model core.Model, mach *machine.Machine, w Workload, p *Plan, trace bool) (core.Metrics, *sim.Group) {
	return apps.Run(model, mach, trace,
		func(g *sim.Group) core.Metrics { return runMP(mach, w, p, g) },
		func(g *sim.Group) core.Metrics { return runSHMEM(mach, w, p, g) },
		func(g *sim.Group) core.Metrics { return runSAS(mach, w, p, g) })
}

// chargeOps advances pc's clock by n abstract operations in whatever phase
// the solver is in (apps.ChargeOps names one).
func chargeOps(pc *sim.Proc, mach *machine.Machine, n int) {
	pc.Advance(sim.Time(n) * mach.Cfg.OpNS)
}

func finish(model core.Model, g *sim.Group, sp *numa.Space, p *Plan, checksum, rho float64) core.Metrics {
	met := apps.Collect(model, g, sp, checksum)
	met.Extra["residual"] = rho
	mpB, shB, saB := p.Dec.DataMemory(5) // x, r, p, q, staging
	switch model {
	case core.MP:
		met.DataBytes = mpB
	case core.SHMEM:
		met.DataBytes = shB
	case core.SAS:
		met.DataBytes = saB
	}
	return met
}
