package barnes

// The step's loops, shared by the three model implementations: the force
// replay, the leapfrog update and the checksum fold. Table 5 does not count
// this file, as it does not count the stencil's or the mesh's kernels.go: the
// loops are the same in every model, and what a model makes a programmer
// write — where the tree's cells live, how the updated bodies reach the other
// processors — is around them.
//
// Each kernel binds one cursor per array for its loop and flushes them before
// it returns; by the Cursor contract it charges exactly what the same loop of
// Array.Load/Store charges.

import (
	"o2k/internal/machine"
	"o2k/internal/nbody"
	"o2k/internal/numa"
	"o2k/internal/sim"
)

// force charges the force evaluation of the bodies of own (the plan's list
// for p) against the body arrays x, y, m and the cell array cells: per body,
// the loads of its own position, then its tree walk. It charges them as one
// load footprint (StepPlan.forceLoads) and, where that does not apply, body by
// body. It returns the walk plan, whose accelerations the update reads.
func force(p *sim.Proc, mach *machine.Machine, pl *StepPlan, own []int32, x, y, m, cells *numa.Array[float64]) *WalkPlan {
	cx, cy, cm := x.Cursor(p), y.Cursor(p), m.Cursor(p)
	ccl := cells.Cursor(p)
	wp := pl.Walk.Ensure()
	if fp := pl.forceLoads(p.ID(), wp); fp == nil || !numa.ChargeLoads(fp, &cx, &cy, &cm, &ccl) {
		for _, i := range own {
			chargeBody(wp, int(i), &cx, &cy, &cm, &ccl)
		}
	}
	interTot := 0
	for _, i := range own {
		interTot += pl.Inter[i]
	}
	cx.Flush()
	cy.Flush()
	cm.Flush()
	ccl.Flush()
	p.Advance(sim.Time(interTot*forceOps) * mach.Cfg.OpNS)
	return wp
}

// leapfrog advances the velocities and positions of the bodies of own by one
// time step under the accelerations of wp.
func leapfrog(p *sim.Proc, mach *machine.Machine, wp *WalkPlan, own []int32, x, y, vx, vy *numa.Array[float64]) {
	cx, cy := x.Cursor(p), y.Cursor(p)
	cvx, cvy := vx.Cursor(p), vy.Cursor(p)
	for _, i := range own {
		j := int(i)
		nvx := cvx.Load(j) + wp.AX[j]*nbody.DT
		nvy := cvy.Load(j) + wp.AY[j]*nbody.DT
		cvx.Store(j, nvx)
		cvy.Store(j, nvy)
		cx.Store(j, cx.Load(j)+nvx*nbody.DT)
		cy.Store(j, cy.Load(j)+nvy*nbody.DT)
	}
	cx.Flush()
	cy.Flush()
	cvx.Flush()
	cvy.Flush()
	p.Advance(sim.Time(len(own)*updateOps) * mach.Cfg.OpNS)
}

// ownSum returns the checksum share of the bodies of own: the sum of x + 2y.
func ownSum(p *sim.Proc, own []int32, x, y *numa.Array[float64]) float64 {
	cx, cy := x.Cursor(p), y.Cursor(p)
	sum := 0.0
	for _, i := range own {
		sum += cx.Load(int(i)) + 2*cy.Load(int(i))
	}
	cx.Flush()
	cy.Flush()
	return sum
}
