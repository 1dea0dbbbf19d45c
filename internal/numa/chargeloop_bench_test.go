package numa_test

import (
	"testing"

	"o2k/internal/apps/adaptmesh"
	"o2k/internal/machine"
	"o2k/internal/numa"
	"o2k/internal/sim"
)

// BenchmarkChargeLoop prices ChargeLoop on the three loops that call it.
//
// row and same-set charge one row of the stencil sweep (a Default row of 384
// cells), in ns per cell: four loads of the source — up, down, and the left
// and right neighbours, which share a line — and a store to the destination.
// row: the 4 MB cache, every line alone in its set. same-set: the destination
// placed where each of its lines falls in the set of the same line of the
// source, so that the sets the rule charges are crowded and it moves their
// lines to MRU by last access. Both take the footprint rule, and the memo
// answers every call after the first.
//
// edges, edges-miss and edges-conflict charge the mesh's edge flux — per edge
// (a, b) the loads u[a] u[b] acc[a], the store acc[a], the load acc[b] and the
// store acc[b], six index streams over two lists — over processor 0's edges of
// the last cycle of a Default-size plan for 16 processors, in ns per access.
// edges: the 4 MB cache, where the lines of u and acc the edges touch sit in
// distinct sets, and the memo answers every call after the first. edges-miss:
// the same with the memo emptied before every call, which pays findFootprint's
// passes each time. edges-conflict: acc placed where each of its lines falls
// in the set of the same line of u, so that each set receives two lines, which
// the rule takes too.
//
// decline prices the element loop (chargeEach) the rule falls back to: a row
// of loads from each of cacheWays+1 arrays whose lines share every set, in ns
// per access.
func BenchmarkChargeLoop(b *testing.B) {
	numa.Unaudited(b)
	b.Run("row", func(b *testing.B) { benchChargeLoop(b, false) })
	b.Run("same-set", func(b *testing.B) { benchChargeLoop(b, true) })
	pls := adaptmesh.BuildPlans(adaptmesh.Default(), 16)
	pl := pls[len(pls)-1]
	b.Run("edges", func(b *testing.B) { benchEdges(b, pl, false, false) })
	b.Run("edges-miss", func(b *testing.B) { benchEdges(b, pl, false, true) })
	b.Run("edges-conflict", func(b *testing.B) { benchEdges(b, pl, true, false) })
	b.Run("decline", benchDecline)
}

func benchChargeLoop(b *testing.B, sameSet bool) {
	const n, rowLen = 384, 386
	sp := numa.NewSpace(machine.MustNew(machine.Default(1)))
	p := sim.NewGroup(1).Proc(0)
	src := numa.NewPrivate[float64](sp, 0, 3*rowLen)
	if sameSet {
		numa.SameSetsAs(sp, src)
	}
	dst := numa.NewPrivate[float64](sp, 0, 3*rowLen)
	cs, cd := src.Cursor(p), dst.Cursor(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		numa.ChargeLoop(1, n+1, numa.Stream[float64]{C: &cs}, numa.Stream[float64]{C: &cs, Off: 2 * rowLen},
			numa.Stream[float64]{C: &cs, Off: rowLen - 1}, numa.Stream[float64]{C: &cs, Off: rowLen + 1},
			numa.Stream[float64]{C: &cd, Off: rowLen, Write: true})
	}
	b.StopTimer()
	cs.Flush()
	cd.Flush()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/cell")
}

func benchEdges(b *testing.B, pl *adaptmesh.CyclePlan, conflict, miss bool) {
	sp := numa.NewSpace(machine.MustNew(machine.Default(16)))
	p := sim.NewGroup(16).Proc(0)
	u := numa.NewPrivate[float64](sp, 0, pl.NV)
	if conflict {
		numa.SameSetsAs(sp, u)
	}
	acc := numa.NewPrivate[float64](sp, 0, pl.NV)
	ea, eb := pl.EdgeA[0], pl.EdgeB[0]
	cu, ca := u.Cursor(p), acc.Cursor(p)
	flux := func() {
		numa.ChargeLoop(0, len(ea),
			numa.Stream[float64]{C: &cu, Idx: ea}, numa.Stream[float64]{C: &cu, Idx: eb},
			numa.Stream[float64]{C: &ca, Idx: ea}, numa.Stream[float64]{C: &ca, Idx: ea, Write: true},
			numa.Stream[float64]{C: &ca, Idx: eb}, numa.Stream[float64]{C: &ca, Idx: eb, Write: true})
	}
	flux() // the misses: every later call hits
	fc := numa.CountFootprints(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if miss {
			numa.ForgetFootprints(sp)
		}
		flux()
	}
	b.StopTimer()
	if fc.Rule.Load() != fc.Calls.Load() {
		b.Errorf("the footprint rule charged %d of %d calls, want all", fc.Rule.Load(), fc.Calls.Load())
	}
	if hits := fc.Hits.Load(); miss && hits != 0 || !miss && hits != fc.Calls.Load() {
		b.Errorf("the memo answered %d of %d calls", hits, fc.Calls.Load())
	}
	cu.Flush()
	ca.Flush()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*6*len(ea)), "ns/access")
}

func benchDecline(b *testing.B) {
	const n, ways = 384, 4 // cacheWays
	sp := numa.NewSpace(machine.MustNew(machine.Default(1)))
	p := sim.NewGroup(1).Proc(0)
	var cursors [ways + 1]numa.Cursor[float64]
	var streams [ways + 1]numa.Stream[float64]
	var prev *numa.Array[float64]
	for k := range cursors {
		if prev != nil {
			numa.SameSetsAs(sp, prev)
		}
		prev = numa.NewPrivate[float64](sp, 0, n)
		cursors[k] = prev.Cursor(p)
		streams[k] = numa.Stream[float64]{C: &cursors[k]}
	}
	fc := numa.CountFootprints(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		numa.ChargeLoop(0, n, streams[:]...)
	}
	b.StopTimer()
	if fc.Rule.Load() != 0 {
		b.Errorf("the footprint rule charged %d of %d calls, want none", fc.Rule.Load(), fc.Calls.Load())
	}
	for k := range cursors {
		cursors[k].Flush()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(streams)*n), "ns/access")
}
