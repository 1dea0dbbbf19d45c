// Package apps is the run harness the four applications (and the mesh
// hybrid) share: creating a run's processor group, dispatching on the
// programming model, charging abstract operations, and reading a finished run
// out into core.Metrics. What differs between applications — the data-memory
// formula, and the mesh's remap weight — stays with the application; what a
// comparison of traffic must count the same way everywhere lives here once.
package apps

import (
	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/numa"
	"o2k/internal/sim"
)

// NewGroup returns the processor group of one run on mach, with
// phase-timeline tracing (sim.RenderTimeline, the obs exporters) on request.
func NewGroup(mach *machine.Machine, trace bool) *sim.Group {
	g := sim.NewGroup(mach.Procs())
	if trace {
		g.EnableTrace()
	}
	return g
}

// Run executes one of an application's three model implementations on a
// fresh group and returns its metrics with the group, which a traced run is
// asked for.
func Run(model core.Model, mach *machine.Machine, trace bool, mp, shmem, sas func(*sim.Group) core.Metrics) (core.Metrics, *sim.Group) {
	g := NewGroup(mach, trace)
	switch model {
	case core.MP:
		return mp(g), g
	case core.SHMEM:
		return shmem(g), g
	case core.SAS:
		return sas(g), g
	}
	panic("apps: unknown model")
}

// ChargeOps advances p's clock by n abstract operations, attributed to ph.
func ChargeOps(p *sim.Proc, mach *machine.Machine, ph sim.Phase, n int) {
	prev := p.SetPhase(ph)
	p.Advance(sim.Time(n) * mach.Cfg.OpNS)
	p.SetPhase(prev)
}

// Collect reads a completed run out of its group and ends its address space:
// the fields every application reports the same way, with the coherence
// evictions the space counted at its merges folded into Counters.CohMisses.
// DataBytes is the application's analytic data memory under model: mpB,
// shB or saB, and mpB for the hybrid, which replicates MP-style at node
// granularity. sp is closed — the run is over and read out, so the arrays'
// host memory goes back now instead of when a collection finds the space.
func Collect(model core.Model, g *sim.Group, sp *numa.Space, checksum float64, mpB, shB, saB int) core.Metrics {
	met := core.Metrics{
		Model:     model,
		Procs:     g.Size(),
		Total:     g.MaxTime(),
		PhaseMax:  g.MaxPhaseTime(),
		PhaseAvg:  g.AvgPhaseTime(),
		Counters:  g.TotalCounters(),
		DataBytes: [...]int{core.MP: mpB, core.SHMEM: shB, core.SAS: saB, core.Hybrid: mpB}[model],
		Checksum:  checksum,
	}
	for _, ev := range sp.CohEvictions() {
		met.Counters.CohMisses += ev
	}
	sp.Close()
	return met
}
