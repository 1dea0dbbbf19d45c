package adaptmesh

import (
	"math"

	"o2k/internal/apps"
	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/numa"
	"o2k/internal/sim"
	"o2k/internal/solver"
)

// RunWithPlans executes the workload under the given programming model on
// machine mach and returns the run's metrics. The plans (BuildPlans at
// mach.Procs()) are read-only and identical for every model at the same
// processor count, so one set serves all three.
func RunWithPlans(model core.Model, mach *machine.Machine, w Workload, plans []*CyclePlan) core.Metrics {
	met, _ := runModel(model, mach, w, plans, false)
	return met
}

// TraceRun executes the workload like RunWithPlans but with phase-timeline
// tracing enabled, returning the processor group for sim.RenderTimeline.
func TraceRun(model core.Model, mach *machine.Machine, w Workload, plans []*CyclePlan) *sim.Group {
	_, g := runModel(model, mach, w, plans, true)
	return g
}

func runModel(model core.Model, mach *machine.Machine, w Workload, plans []*CyclePlan, trace bool) (core.Metrics, *sim.Group) {
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

// chargeMark bills the error-indicator evaluation over this proc's share of
// the pre-adaptation mesh. Identical in every model (it is pure local
// computation).
func chargeMark(p *sim.Proc, mach *machine.Machine, pl *CyclePlan) {
	chargeOps(p, mach, sim.PhaseMark, solver.MarkOps*pl.MarkWork[p.ID()])
}

// chargePartition bills the repartitioning computation. The partitioner is
// parallelized (each processor handles its share of the RCB sort work) with
// a serial coordination floor — the PLUM-style structure all three models
// share, so the cost is identical across models.
func chargePartition(p *sim.Proc, mach *machine.Machine, pl *CyclePlan) {
	nt := pl.M.NumTris()
	ne := pl.M.NumEdges()
	levels := mach.LogStages(pl.Dec.P)
	if levels < 1 {
		levels = 1
	}
	ops := (solver.PartOps*nt*levels+8*(nt+ne))/pl.Dec.P + 2*nt
	chargeOps(p, mach, sim.PhasePartition, ops)
}

// refineRecords returns this proc's share of the structural change records
// exchanged during the refine phase: one compact word per change (element
// index + split pattern), the encoding a production adaptation code would
// gather to update remote halos.
func refineRecords(pl *CyclePlan, nprocs int) []int32 {
	per := (pl.Changes + nprocs - 1) / nprocs
	return make([]int32, per)
}

// finishMetrics reads the completed run out (apps.Collect) and adds what is
// the mesh's own: the analytic data memory — nfields is the per-vertex field
// count (solved field + accumulator + auxiliary state) — and the structural
// averages over the cycles.
func finishMetrics(model core.Model, g *sim.Group, sp *numa.Space, plans []*CyclePlan, nfields int, checksum float64) core.Metrics {
	met := apps.Collect(model, g, sp, checksum)
	mpB, shB, saB := maxDataMemory(plans, nfields)
	switch model {
	case core.MP, core.Hybrid: // the hybrid replicates MP-style, at node granularity
		met.DataBytes = mpB
	case core.SHMEM:
		met.DataBytes = shB
	case core.SAS:
		met.DataBytes = saB
	}
	var tris, verts, cut, movedW, imb float64
	for _, pl := range plans {
		tris += float64(pl.M.NumTris())
		verts += float64(pl.M.NumVertsUsed())
		cut += float64(pl.Dec.EdgeCut)
		movedW += pl.Remap.TotalW
		imb = math.Max(imb, pl.Imbalance)
	}
	n := float64(len(plans))
	met.Extra["avg_tris"] = tris / n
	met.Extra["avg_verts"] = verts / n
	met.Extra["avg_edgecut"] = cut / n
	met.Extra["moved_weight"] = movedW
	met.Extra["max_imbalance"] = imb
	return met
}

// maxDataMemory returns the peak per-model analytic memory over the plans.
func maxDataMemory(plans []*CyclePlan, nfields int) (mpB, shB, saB int) {
	for _, pl := range plans {
		a, b, c := pl.Dec.DataMemory(nfields)
		if a > mpB {
			mpB, shB, saB = a, b, c
		}
	}
	return
}
