package nbody

import "slices"

// MortonOrder returns the body indices sorted by Morton key, ties broken by
// index — the space-filling traversal CostZones splits. The comparator is a
// total order, so the permutation is unique: any sorting algorithm produces
// identical output. It depends only on positions, never on costs or the
// processor count, so callers deriving partitions for several processor
// counts over one body set compute it once and reuse it.
func MortonOrder(b *Bodies) []int32 {
	n := b.N()
	x0, y0, size := b.Bounds()
	// key<<32|index composites sort exactly as (key, index) pairs.
	comp := make([]uint64, n)
	for i := 0; i < n; i++ {
		comp[i] = uint64(b.MortonKey(i, x0, y0, size))<<32 | uint64(uint32(i))
	}
	slices.Sort(comp)
	order := make([]int32, n)
	for i, k := range comp {
		order[i] = int32(uint32(k))
	}
	return order
}

// CostZones partitions bodies into nparts spatially-compact, cost-balanced
// zones: bodies are ordered by Morton key and split at cumulative-cost
// boundaries. cost[i] is the per-body work estimate (interaction count from
// the previous step; ones for the first). Ties in keys break by body index,
// so the partition is deterministic.
func CostZones(b *Bodies, cost []float64, nparts int) []int32 {
	return CostZonesOrdered(MortonOrder(b), cost, nparts)
}

// CostZonesOrdered is CostZones over a precomputed Morton order.
func CostZonesOrdered(order []int32, cost []float64, nparts int) []int32 {
	total := 0.0
	for _, ci := range cost {
		total += ci
	}
	out := make([]int32, len(order))
	part := 0
	cum := 0.0
	for _, i := range order {
		// Advance to the next zone when this one's share is filled.
		for part < nparts-1 && cum >= total*float64(part+1)/float64(nparts) {
			part++
		}
		out[i] = int32(part)
		cum += cost[i]
	}
	return out
}

// Step advances the reference simulation by one leapfrog step with the
// given tree, writing accelerations into ax/ay and returning per-body
// interaction counts. Bodies update in index order.
func Step(b *Bodies, t *Tree, theta float64, ax, ay []float64, inter []int) {
	for i := range b.X {
		ax[i], ay[i], inter[i] = t.DirectAccel(b, int32(i), theta)
	}
	b.Leapfrog(ax, ay)
}

// Leapfrog advances every body by one step under the accelerations ax/ay, in
// index order.
func (b *Bodies) Leapfrog(ax, ay []float64) {
	for i := range b.X {
		b.VX[i] += ax[i] * DT
		b.VY[i] += ay[i] * DT
		b.X[i] += b.VX[i] * DT
		b.Y[i] += b.VY[i] * DT
	}
}

// Energy returns the kinetic energy (a cheap sanity invariant: it should
// stay bounded over the short runs used here).
func (b *Bodies) Energy() float64 {
	e := 0.0
	for i := 0; i < b.N(); i++ {
		e += 0.5 * b.M[i] * (b.VX[i]*b.VX[i] + b.VY[i]*b.VY[i])
	}
	return e
}

// Checksum folds positions into a deterministic digest (index order).
func (b *Bodies) Checksum() float64 {
	s := 0.0
	for i := 0; i < b.N(); i++ {
		s += b.X[i] + 2*b.Y[i]
	}
	return s
}
