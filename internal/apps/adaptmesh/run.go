package adaptmesh

import (
	"math"

	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/numa"
	"o2k/internal/sim"
	"o2k/internal/solver"
)

// Run executes the workload under the given programming model on machine
// mach and returns the run's metrics. Plans are rebuilt; use RunWithPlans to
// amortize plan construction across models (the plans are read-only and
// identical for every model at the same processor count).
func Run(model core.Model, mach *machine.Machine, w Workload) core.Metrics {
	return RunWithPlans(model, mach, w, BuildPlans(w, mach.Procs()))
}

// RunWithPlans is Run with precomputed cycle plans.
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
	g := sim.NewGroup(mach.Procs())
	if trace {
		g.EnableTrace()
	}
	switch model {
	case core.MP:
		return runMP(mach, w, plans, g), g
	case core.SHMEM:
		return runSHMEM(mach, w, plans, g), g
	case core.SAS:
		return runSAS(mach, w, plans, g), g
	}
	panic("adaptmesh: unknown model")
}

// chargeOps advances p's clock by n abstract operations, attributed to ph.
func chargeOps(p *sim.Proc, mach *machine.Machine, ph sim.Phase, n int) {
	prev := p.SetPhase(ph)
	p.Advance(sim.Time(n) * mach.Cfg.OpNS)
	p.SetPhase(prev)
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

// finishMetrics assembles the result from the completed group. nfields is
// the per-vertex field count for the analytic memory table (solved field +
// accumulator + auxiliary state).
func finishMetrics(model core.Model, g *sim.Group, sp *numa.Space, plans []*CyclePlan, nfields int, checksum float64) core.Metrics {
	met := core.Metrics{
		Model:    model,
		Procs:    g.Size(),
		Total:    g.MaxTime(),
		PhaseMax: g.MaxPhaseTime(),
		PhaseAvg: g.AvgPhaseTime(),
		Counters: g.TotalCounters(),
		Checksum: checksum,
		Extra:    map[string]float64{},
	}
	for _, ev := range sp.CohEvictions() {
		met.Counters.CohMisses += ev
	}
	sp.Close() // the run is over and read out: return the arrays' host memory now
	maxMem := [3]int{}
	var tris, verts, cut, movedW, imb float64
	for _, pl := range plans {
		mpB, shB, saB := pl.Dec.DataMemory(nfields)
		if mpB > maxMem[0] {
			maxMem[0], maxMem[1], maxMem[2] = mpB, shB, saB
		}
		tris += float64(pl.M.NumTris())
		verts += float64(pl.M.NumVertsUsed())
		cut += float64(pl.Dec.EdgeCut)
		movedW += pl.Remap.TotalW
		imb = math.Max(imb, pl.Imbalance)
	}
	n := float64(len(plans))
	switch model {
	case core.MP:
		met.DataBytes = maxMem[0]
	case core.SHMEM:
		met.DataBytes = maxMem[1]
	case core.SAS:
		met.DataBytes = maxMem[2]
	}
	met.Extra["avg_tris"] = tris / n
	met.Extra["avg_verts"] = verts / n
	met.Extra["avg_edgecut"] = cut / n
	met.Extra["moved_weight"] = movedW
	met.Extra["max_imbalance"] = imb
	return met
}
