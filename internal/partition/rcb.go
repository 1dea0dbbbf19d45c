// Package partition provides the domain-decomposition machinery the
// adaptive applications share: a weighted recursive-coordinate-bisection
// (RCB) partitioner, a PLUM-style remapper that keeps repartitioned data
// close to where it already lives, and the Decomp structure that turns a
// triangle partition into the ownership and communication lists the three
// programming-model implementations consume.
package partition

import "slices"

// RCB partitions n weighted points (xs[i], ys[i], w[i]) into nparts parts by
// recursive coordinate bisection: split the longer bounding-box axis at the
// weighted median, recursing with proportional part counts (so nparts need
// not be a power of two). It returns the part index per point.
//
// The computation is deterministic: ties in coordinates are broken by point
// index.
//
// Each axis is sorted once. A subset is the same range of two lists, its
// points ordered by (x, index) and by (y, index); a cut splits the list of
// its axis where it falls and stably partitions the other, so every subset
// meets its points in the order a sort of the subset would give them.
func RCB(xs, ys, w []float64, nparts int) []int32 {
	if nparts < 1 {
		panic("partition: nparts must be >= 1")
	}
	if len(xs) != len(ys) || len(xs) != len(w) {
		panic("partition: coordinate/weight length mismatch")
	}
	n := len(xs)
	if nparts == 1 {
		return make([]int32, n) // one part: no cut, so no sort
	}
	r := rcb{xs: xs, ys: ys, w: w, byX: sortedBy(xs), byY: sortedBy(ys),
		out: make([]int32, n), inLeft: make([]bool, n), tmp: make([]int32, n)}
	r.split(0, n, 0, nparts)
	return r.out
}

// sortedBy returns the point indices ordered by (coord, index). That is a
// total order, so the permutation is unique whatever the algorithm. SortFunc
// has no reflection swapper; the plain comparisons matter too (cmp.Compare
// orders NaNs, and with it this sort is half again slower than the sort.Slice
// it replaced).
func sortedBy(coord []float64) []int32 {
	idx := make([]int32, len(coord))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(ia, ib int32) int {
		switch ca, cb := coord[ia], coord[ib]; {
		case ca < cb:
			return -1
		case ca > cb:
			return 1
		}
		return int(ia) - int(ib)
	})
	return idx
}

// rcb is one partitioning: the points, the two sorted lists, the result, and
// the scratch of the stable partition.
type rcb struct {
	xs, ys, w []float64
	byX, byY  []int32
	out       []int32
	inLeft    []bool // per point: on the left of the cut being made
	tmp       []int32
}

// split assigns the points of range [lo, hi) of both lists to parts [base,
// base+nparts).
func (r *rcb) split(lo, hi, base, nparts int) {
	if nparts == 1 {
		for _, i := range r.byX[lo:hi] {
			r.out[i] = int32(base)
		}
		return
	}
	if lo == hi {
		return
	}
	// Split the longer bounding-box axis; each list's ends are its extremes.
	idx, other := r.byX[lo:hi], r.byY[lo:hi]
	if r.ys[other[len(other)-1]]-r.ys[other[0]] > r.xs[idx[len(idx)-1]]-r.xs[idx[0]] {
		idx, other = other, idx
	}
	w := r.w
	left := nparts / 2
	right := nparts - left
	var total float64
	for _, i := range idx {
		total += w[i]
	}
	target := total * float64(left) / float64(nparts)
	cum := 0.0
	cut := 0
	for cut < len(idx)-1 {
		cum += w[idx[cut]]
		cut++
		if cum >= target {
			break
		}
	}
	if cut == 0 {
		cut = 1
	}
	if left > 0 && cut > len(idx)-(right) && len(idx) >= nparts {
		cut = len(idx) - right
	}
	for k, i := range idx {
		r.inLeft[i] = k < cut
	}
	nl, nr := 0, 0
	for _, i := range other {
		if r.inLeft[i] {
			other[nl] = i
			nl++
		} else {
			r.tmp[nr] = i
			nr++
		}
	}
	copy(other[nl:], r.tmp[:nr])
	r.split(lo, lo+cut, base, left)
	r.split(lo+cut, hi, base+left, right)
}
