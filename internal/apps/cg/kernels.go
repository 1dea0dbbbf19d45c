package cg

// The solver's loops, shared by the three model implementations: the set-up
// of the vectors, the matvec, the diagonal term with its dot product, the two
// vector updates and the solution digest. Table 5 does not count this file,
// as it does not count the stencil's or the mesh's kernels.go: the loops are
// the same in every model, and what a model makes a programmer write — the
// ghost refresh, the partial-sum exchange, the reductions — is around them.
//
// Each kernel binds one cursor per array for its loop and flushes them before
// it returns; by the Cursor contract it charges exactly what the same loop of
// Array.Load/Store charges, in the order the loop names its accesses.

import (
	"o2k/internal/machine"
	"o2k/internal/numa"
	"o2k/internal/sim"
)

// initVecs sets x = 0 and r = p = b over the vertices me owns and returns
// its share of b·b.
func initVecs(pc *sim.Proc, mach *machine.Machine, pl *Plan, me int, x, rv, pv *numa.Array[float64]) float64 {
	owned := pl.Dec.OwnedVerts[me]
	cr, cp, cx := rv.Cursor(pc), pv.Cursor(pc), x.Cursor(pc)
	part := 0.0
	for _, vid := range owned {
		b := pl.B[vid]
		cr.Store(int(vid), b)
		cp.Store(int(vid), b)
		cx.Store(int(vid), 0)
		part += b * b
	}
	cr.Flush()
	cp.Flush()
	cx.Flush()
	chargeOps(pc, mach, len(owned)*dotOps)
	return part
}

// matvec computes me's edge half of q = A p: it clears q over me's clear list
// and subtracts p across each edge me owns. The partial sums of border
// vertices still have to reach their owners.
func matvec(pc *sim.Proc, mach *machine.Machine, pl *Plan, me int, pv, q *numa.Array[float64]) {
	edges := pl.Dec.OwnedEdges[me]
	cp, cq := pv.Cursor(pc), q.Cursor(pc)
	for _, vid := range pl.Clear[me] {
		cq.Store(int(vid), 0)
	}
	for _, e := range edges {
		a, b := int(pl.M.Edges[e][0]), int(pl.M.Edges[e][1])
		cq.Store(a, cq.Load(a)-cp.Load(b))
		cq.Store(b, cq.Load(b)-cp.Load(a))
	}
	cp.Flush()
	cq.Flush()
	chargeOps(pc, mach, len(edges)*matvecOps)
}

// diagDot adds the diagonal term to q over the vertices me owns and returns
// its share of p·q.
func diagDot(pc *sim.Proc, mach *machine.Machine, w Workload, pl *Plan, me int, pv, q *numa.Array[float64]) float64 {
	owned := pl.Dec.OwnedVerts[me]
	cp, cq := pv.Cursor(pc), q.Cursor(pc)
	pq := 0.0
	for _, vid := range owned {
		i := int(vid)
		qa := cq.Load(i) + pl.Diag(w, vid)*cp.Load(i)
		cq.Store(i, qa)
		pq += cp.Load(i) * qa
	}
	cp.Flush()
	cq.Flush()
	chargeOps(pc, mach, len(owned)*(diagOps+dotOps))
	return pq
}

// updateXR sets x += alpha·p and r -= alpha·q over the vertices me owns and
// returns its share of r·r.
func updateXR(pc *sim.Proc, mach *machine.Machine, pl *Plan, me int, alpha float64, x, rv, pv, q *numa.Array[float64]) float64 {
	owned := pl.Dec.OwnedVerts[me]
	cx, cr, cp, cq := x.Cursor(pc), rv.Cursor(pc), pv.Cursor(pc), q.Cursor(pc)
	rr := 0.0
	for _, vid := range owned {
		i := int(vid)
		cx.Store(i, cx.Load(i)+alpha*cp.Load(i))
		nr := cr.Load(i) - alpha*cq.Load(i)
		cr.Store(i, nr)
		rr += nr * nr
	}
	cx.Flush()
	cr.Flush()
	cp.Flush()
	cq.Flush()
	chargeOps(pc, mach, len(owned)*(2*axpyOps+dotOps))
	return rr
}

// updateP sets p = r + beta·p over the vertices me owns.
func updateP(pc *sim.Proc, mach *machine.Machine, pl *Plan, me int, beta float64, rv, pv *numa.Array[float64]) {
	owned := pl.Dec.OwnedVerts[me]
	cr, cp := rv.Cursor(pc), pv.Cursor(pc)
	for _, vid := range owned {
		i := int(vid)
		cp.Store(i, cr.Load(i)+beta*cp.Load(i))
	}
	cr.Flush()
	cp.Flush()
	chargeOps(pc, mach, len(owned)*axpyOps)
}

// sumX returns the sum of x over the vertices me owns: its share of the
// solution digest.
func sumX(pc *sim.Proc, pl *Plan, me int, x *numa.Array[float64]) float64 {
	cx := x.Cursor(pc)
	s := 0.0
	for _, vid := range pl.Dec.OwnedVerts[me] {
		s += cx.Load(int(vid))
	}
	cx.Flush()
	return s
}
