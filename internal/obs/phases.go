package obs

import (
	"o2k/internal/core"
	"o2k/internal/sim"
)

// PhaseStat aggregates one phase's per-processor virtual time across a
// group: the spread (min/max/mean) and the imbalance factor max/mean — 1.0
// is a perfectly balanced phase, and the factor is exactly how much longer
// the phase's critical path is than its ideal. These are the numbers behind
// the paper's load-balance discussion, computed from the actual traced run
// rather than read off a bar chart.
type PhaseStat struct {
	Phase     string   `json:"phase"`
	Min       sim.Time `json:"min_ns"`
	Max       sim.Time `json:"max_ns"`
	Mean      sim.Time `json:"mean_ns"`   // rounded half-up
	Imbalance float64  `json:"imbalance"` // max/mean; 1.0 = perfectly balanced
}

// aggregate computes one PhaseStat from per-processor times. The mean
// rounds half-up (plain integer division would bias every phase low by up
// to n-1 time units) but the imbalance factor is computed from the
// unrounded sum, so it is exact.
func aggregate(name string, vals []sim.Time) PhaseStat {
	st := PhaseStat{Phase: name, Min: vals[0]}
	var sum sim.Time
	for _, v := range vals {
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
		sum += v
	}
	n := sim.Time(len(vals))
	st.Mean = (sum + n/2) / n
	if sum > 0 {
		st.Imbalance = float64(st.Max) * float64(n) / float64(sum)
	}
	return st
}

// GroupPhases computes the per-phase aggregates of a completed group.
// Phases no processor entered are omitted. It reads the per-proc phase
// accumulators, which every run records — tracing is not required.
func GroupPhases(g *sim.Group) []PhaseStat {
	n := g.Size()
	vals := make([]sim.Time, n)
	var out []PhaseStat
	for ph := sim.Phase(0); ph < sim.NumPhases; ph++ {
		var sum sim.Time
		for i := 0; i < n; i++ {
			vals[i] = g.Proc(i).PhaseTime(ph)
			sum += vals[i]
		}
		if sum == 0 {
			continue
		}
		out = append(out, aggregate(ph.String(), vals))
	}
	return out
}

// RunPhases is the aggregate set of one traced run: every active phase plus
// the per-processor total clocks (the overall load balance).
type RunPhases struct {
	Name   string      `json:"name"`
	Procs  int         `json:"procs"`
	Total  sim.Time    `json:"total_ns"` // simulated wall-clock (max over procs)
	Clock  PhaseStat   `json:"clock"`    // aggregate of per-proc total clocks
	Phases []PhaseStat `json:"phases"`
}

// NewRunPhases computes the aggregates of a completed group under a display
// name (conventionally "app MODEL P=n").
func NewRunPhases(name string, g *sim.Group) RunPhases {
	clocks := make([]sim.Time, g.Size())
	for i := range clocks {
		clocks[i] = g.Proc(i).Now()
	}
	return RunPhases{
		Name:   name,
		Procs:  g.Size(),
		Total:  g.MaxTime(),
		Clock:  aggregate("TOTAL", clocks),
		Phases: GroupPhases(g),
	}
}

// PhaseTable renders the aggregates of one or more runs as the
// `-phasereport` table: one row per (run, phase), closed by the run's TOTAL
// row.
func PhaseTable(runs []RunPhases) *core.Table {
	t := &core.Table{
		Title:  "Phase report — per-proc virtual time and imbalance factor",
		Header: []string{"run", "phase", "min", "max", "mean", "imbalance"},
	}
	for _, r := range runs {
		for _, s := range r.Phases {
			t.AddRow(r.Name, s.Phase, core.FT(s.Min), core.FT(s.Max), core.FT(s.Mean), core.F(s.Imbalance))
		}
		c := r.Clock
		t.AddRow(r.Name, c.Phase, core.FT(c.Min), core.FT(c.Max), core.FT(c.Mean), core.F(c.Imbalance))
	}
	return t
}
