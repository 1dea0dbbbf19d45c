package stencil

// Shared helpers of the three programming-model implementations: seeding,
// the Jacobi sweep, and the checksum fold. The decomposition is identical
// (static row blocks); only the halo-row movement differs per model. Table 5
// does not count this file: every model calls each of its kernels.
//
// Each helper charges its accesses with one numa.ChargeLoop and computes over
// Data(). The walk charges exactly the element loop of Cursor.Load/Store it
// names: for seed, per element of rows [r0, r1), the store to u then to v;
// for sweep, per interior cell (i, j), the loads of (i-1, j), (i+1, j),
// (i, j-1), (i, j+1) from src, then the store of (i, j) to dst; for ownSum,
// the load of each owned interior cell, row by row.

import (
	"o2k/internal/machine"
	"o2k/internal/numa"
	"o2k/internal/sim"
)

func seed(p *sim.Proc, w Workload, u, v *numa.Array[float64], r0, r1 int) {
	cu, cv := u.Cursor(p), v.Cursor(p)
	lo, hi := idx(w, r0, 0), idx(w, r1, 0)
	numa.ChargeLoop(lo, hi, numa.Stream[float64]{C: &cu, Write: true}, numa.Stream[float64]{C: &cv, Write: true})
	du, dv := u.Data(), v.Data()
	for i := r0; i < r1; i++ {
		for j := 0; j <= w.N+1; j++ {
			du[idx(w, i, j)] = initGrid(w, i, j)
			dv[idx(w, i, j)] = initGrid(w, i, j)
		}
	}
	cu.Flush()
	cv.Flush()
}

// sweep charges and computes one Jacobi iteration over rows [lo, hi).
func sweep(p *sim.Proc, mach *machine.Machine, w Workload, src, dst *numa.Array[float64], lo, hi int) {
	opNS := mach.Cfg.OpNS
	cs, cd := src.Cursor(p), dst.Cursor(p)
	s, d := src.Data(), dst.Data()
	for i := lo; i < hi; i++ {
		u0, d0, c0 := idx(w, i-1, 0), idx(w, i+1, 0), idx(w, i, 0)
		numa.ChargeLoop(1, w.N+1,
			numa.Stream[float64]{C: &cs, Off: u0},
			numa.Stream[float64]{C: &cs, Off: d0},
			numa.Stream[float64]{C: &cs, Off: c0 - 1},
			numa.Stream[float64]{C: &cs, Off: c0 + 1},
			numa.Stream[float64]{C: &cd, Off: c0, Write: true})
		for j := 1; j <= w.N; j++ {
			d[c0+j] = 0.25 * (s[u0+j] + s[d0+j] + s[c0+j-1] + s[c0+j+1])
		}
		p.Advance(sim.Time(cellOps*w.N) * opNS)
	}
	cs.Flush()
	cd.Flush()
}

func ownSum(p *sim.Proc, w Workload, u *numa.Array[float64], lo, hi int) float64 {
	cu := u.Cursor(p)
	du := u.Data()
	s := 0.0
	for i := lo; i < hi; i++ {
		c0 := idx(w, i, 0)
		numa.ChargeLoop(1, w.N+1, numa.Stream[float64]{C: &cu, Off: c0})
		for j := 1; j <= w.N; j++ {
			s += du[c0+j]
		}
	}
	cu.Flush()
	return s
}
