package cg

// The solver's loops, shared by the three model implementations: the set-up
// of the vectors, the matvec, the diagonal term with its dot product, the two
// vector updates and the solution digest. Table 5 does not count this file,
// as it does not count the stencil's or the mesh's kernels.go: the loops are
// the same in every model, and what a model makes a programmer write — the
// ghost refresh, the partial-sum exchange, the reductions — is around them.
//
// Each kernel charges its accesses with one numa.ChargeLoop of index streams
// over a plan list (matvec with two) and computes over Data(), as the mesh's
// solve kernels do. The call charges exactly the element loop of
// Cursor.Load/Store whose order each kernel's comment names, per element of the
// list: a store is written ←. It then flushes the cursors before it returns.

import (
	"o2k/internal/machine"
	"o2k/internal/numa"
	"o2k/internal/sim"
)

// initVecs sets x = 0 and r = p = b over the vertices me owns and returns
// its share of b·b. Per vertex: r← p← x←.
func initVecs(pc *sim.Proc, mach *machine.Machine, pl *Plan, me int, x, rv, pv *numa.Array[float64]) float64 {
	owned := pl.Dec.OwnedVerts[me]
	cr, cp, cx := rv.Cursor(pc), pv.Cursor(pc), x.Cursor(pc)
	numa.ChargeLoop(0, len(owned),
		numa.Stream[float64]{C: &cr, Idx: owned, Write: true},
		numa.Stream[float64]{C: &cp, Idx: owned, Write: true},
		numa.Stream[float64]{C: &cx, Idx: owned, Write: true})
	dr, dp, dx := rv.Data(), pv.Data(), x.Data()
	part := 0.0
	for _, vid := range owned {
		b := pl.B[vid]
		dr[vid], dp[vid], dx[vid] = b, b, 0
		part += float64(b * b)
	}
	cr.Flush()
	cp.Flush()
	cx.Flush()
	chargeOps(pc, mach, len(owned)*dotOps)
	return part
}

// matvec computes me's edge half of q = A p: it clears q over me's clear list
// and subtracts p across each edge me owns. The partial sums of border
// vertices still have to reach their owners. Per vertex of the clear list: q←;
// then per edge (a, b): q[a] p[b] q[a]← q[b] p[a] q[b]←.
func matvec(pc *sim.Proc, mach *machine.Machine, pl *Plan, me int, pv, q *numa.Array[float64]) {
	clr, ea, eb := pl.Clear[me], pl.EdgeA[me], pl.EdgeB[me]
	cp, cq := pv.Cursor(pc), q.Cursor(pc)
	numa.ChargeLoop(0, len(clr), numa.Stream[float64]{C: &cq, Idx: clr, Write: true})
	numa.ChargeLoop(0, len(ea),
		numa.Stream[float64]{C: &cq, Idx: ea},
		numa.Stream[float64]{C: &cp, Idx: eb},
		numa.Stream[float64]{C: &cq, Idx: ea, Write: true},
		numa.Stream[float64]{C: &cq, Idx: eb},
		numa.Stream[float64]{C: &cp, Idx: ea},
		numa.Stream[float64]{C: &cq, Idx: eb, Write: true})
	dp, dq := pv.Data(), q.Data()
	for _, vid := range clr {
		dq[vid] = 0
	}
	for j, a := range ea {
		b := eb[j]
		dq[a] = dq[a] - dp[b]
		dq[b] = dq[b] - dp[a]
	}
	cp.Flush()
	cq.Flush()
	chargeOps(pc, mach, len(ea)*matvecOps)
}

// diagDot adds the diagonal term to q over the vertices me owns and returns
// its share of p·q. Per vertex: q p q← p.
func diagDot(pc *sim.Proc, mach *machine.Machine, w Workload, pl *Plan, me int, pv, q *numa.Array[float64]) float64 {
	owned := pl.Dec.OwnedVerts[me]
	cp, cq := pv.Cursor(pc), q.Cursor(pc)
	numa.ChargeLoop(0, len(owned),
		numa.Stream[float64]{C: &cq, Idx: owned},
		numa.Stream[float64]{C: &cp, Idx: owned},
		numa.Stream[float64]{C: &cq, Idx: owned, Write: true},
		numa.Stream[float64]{C: &cp, Idx: owned})
	dp, dq := pv.Data(), q.Data()
	pq := 0.0
	for _, vid := range owned {
		qa := dq[vid] + float64(pl.Diag(w, vid)*dp[vid])
		dq[vid] = qa
		pq += float64(dp[vid] * qa)
	}
	cp.Flush()
	cq.Flush()
	chargeOps(pc, mach, len(owned)*(diagOps+dotOps))
	return pq
}

// updateXR sets x += alpha·p and r -= alpha·q over the vertices me owns and
// returns its share of r·r. Per vertex: x p x← r q r←.
func updateXR(pc *sim.Proc, mach *machine.Machine, pl *Plan, me int, alpha float64, x, rv, pv, q *numa.Array[float64]) float64 {
	owned := pl.Dec.OwnedVerts[me]
	cx, cr, cp, cq := x.Cursor(pc), rv.Cursor(pc), pv.Cursor(pc), q.Cursor(pc)
	numa.ChargeLoop(0, len(owned),
		numa.Stream[float64]{C: &cx, Idx: owned},
		numa.Stream[float64]{C: &cp, Idx: owned},
		numa.Stream[float64]{C: &cx, Idx: owned, Write: true},
		numa.Stream[float64]{C: &cr, Idx: owned},
		numa.Stream[float64]{C: &cq, Idx: owned},
		numa.Stream[float64]{C: &cr, Idx: owned, Write: true})
	dx, dr, dp, dq := x.Data(), rv.Data(), pv.Data(), q.Data()
	rr := 0.0
	for _, vid := range owned {
		dx[vid] = dx[vid] + float64(alpha*dp[vid])
		nr := dr[vid] - float64(alpha*dq[vid])
		dr[vid] = nr
		rr += float64(nr * nr)
	}
	cx.Flush()
	cr.Flush()
	cp.Flush()
	cq.Flush()
	chargeOps(pc, mach, len(owned)*(2*axpyOps+dotOps))
	return rr
}

// updateP sets p = r + beta·p over the vertices me owns. Per vertex: r p p←.
func updateP(pc *sim.Proc, mach *machine.Machine, pl *Plan, me int, beta float64, rv, pv *numa.Array[float64]) {
	owned := pl.Dec.OwnedVerts[me]
	cr, cp := rv.Cursor(pc), pv.Cursor(pc)
	numa.ChargeLoop(0, len(owned),
		numa.Stream[float64]{C: &cr, Idx: owned},
		numa.Stream[float64]{C: &cp, Idx: owned},
		numa.Stream[float64]{C: &cp, Idx: owned, Write: true})
	dr, dp := rv.Data(), pv.Data()
	for _, vid := range owned {
		dp[vid] = dr[vid] + float64(beta*dp[vid])
	}
	cr.Flush()
	cp.Flush()
	chargeOps(pc, mach, len(owned)*axpyOps)
}

// sumX returns the sum of x over the vertices me owns: its share of the
// solution digest. Per vertex: x.
func sumX(pc *sim.Proc, pl *Plan, me int, x *numa.Array[float64]) float64 {
	owned := pl.Dec.OwnedVerts[me]
	cx := x.Cursor(pc)
	numa.ChargeLoop(0, len(owned), numa.Stream[float64]{C: &cx, Idx: owned})
	dx := x.Data()
	s := 0.0
	for _, vid := range owned {
		s += dx[vid]
	}
	cx.Flush()
	return s
}
