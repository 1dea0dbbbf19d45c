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
func RCB(xs, ys, w []float64, nparts int) []int32 {
	if nparts < 1 {
		panic("partition: nparts must be >= 1")
	}
	if len(xs) != len(ys) || len(xs) != len(w) {
		panic("partition: coordinate/weight length mismatch")
	}
	out := make([]int32, len(xs))
	idx := make([]int32, len(xs))
	for i := range idx {
		idx[i] = int32(i)
	}
	rcbRec(xs, ys, w, idx, 0, nparts, out)
	return out
}

func rcbRec(xs, ys, w []float64, idx []int32, base, nparts int, out []int32) {
	if nparts == 1 {
		for _, i := range idx {
			out[i] = int32(base)
		}
		return
	}
	if len(idx) == 0 {
		return
	}
	// Pick the split dimension by bounding-box extent.
	minX, maxX := xs[idx[0]], xs[idx[0]]
	minY, maxY := ys[idx[0]], ys[idx[0]]
	for _, i := range idx {
		if xs[i] < minX {
			minX = xs[i]
		}
		if xs[i] > maxX {
			maxX = xs[i]
		}
		if ys[i] < minY {
			minY = ys[i]
		}
		if ys[i] > maxY {
			maxY = ys[i]
		}
	}
	coord := xs
	if maxY-minY > maxX-minX {
		coord = ys
	}
	// Coordinate, then index: a total order, so the permutation is unique
	// whatever the algorithm. SortFunc has no reflection swapper; the plain
	// comparisons matter too (cmp.Compare orders NaNs, and with it this sort
	// is half again slower than the sort.Slice it replaced).
	slices.SortFunc(idx, func(ia, ib int32) int {
		switch ca, cb := coord[ia], coord[ib]; {
		case ca < cb:
			return -1
		case ca > cb:
			return 1
		}
		return int(ia) - int(ib)
	})
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
	rcbRec(xs, ys, w, idx[:cut], base, left, out)
	rcbRec(xs, ys, w, idx[cut:], base+left, right, out)
}

// Imbalance returns max part weight divided by average part weight (1.0 is
// perfect) for the given assignment.
func Imbalance(part []int32, w []float64, nparts int) float64 {
	if len(part) == 0 {
		return 1
	}
	sums := make([]float64, nparts)
	total := 0.0
	for i, p := range part {
		sums[p] += w[i]
		total += w[i]
	}
	maxW := 0.0
	for _, s := range sums {
		if s > maxW {
			maxW = s
		}
	}
	if total == 0 {
		return 1
	}
	return maxW * float64(nparts) / total
}
