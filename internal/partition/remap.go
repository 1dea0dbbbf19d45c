package partition

import (
	"cmp"
	"slices"
)

// The PLUM framework (Oliker & Biswas) observed that after repartitioning an
// adapted mesh, the labels of the new parts are arbitrary — so choosing which
// processor gets which new part is a degree of freedom that can drastically
// reduce data movement. Remap implements PLUM's similarity-matrix heuristic:
// build S[p][q] = weight currently on processor p that the new partition
// assigns to part q, then greedily match the largest entries.

// Remap chooses the part→processor assignment that (heuristically) maximizes
// the weight that stays on its current processor. oldOwner[i] is element i's
// current processor, newPart[i] its part in the fresh partition, w[i] its
// weight (e.g. element count or compute cost). It returns assign with
// assign[q] = processor that receives part q, plus the weight it moves.
func Remap(oldOwner, newPart []int32, w []float64, nparts int) ([]int32, float64) {
	if len(oldOwner) != len(newPart) || len(oldOwner) != len(w) {
		panic("partition: remap input length mismatch")
	}
	// Sparse similarity matrix: an old part overlaps only a handful of new
	// parts, so the nonzero entries number O(nparts), not nparts². Greedy
	// maximum matching on the sorted entries selects exactly what repeated
	// global-max scans over the dense matrix would (ties broken by lower
	// processor, then lower part, for determinism), at O(nnz log nnz) instead
	// of O(nparts³) — the dense scan dominated whole runs at 1024 parts.
	sim := make(map[int64]float64)
	for i := range oldOwner {
		sim[int64(oldOwner[i])<<32|int64(newPart[i])] += w[i]
	}
	type entry struct {
		w    float64
		p, q int32
	}
	entries := make([]entry, 0, len(sim))
	for k, v := range sim {
		if v > 0 {
			entries = append(entries, entry{v, int32(k >> 32), int32(k & 0xffffffff)})
		}
	}
	// Weight descending, then (p, q) ascending: (p, q) is a map key, hence
	// unique, so this is a total order and the result is algorithm-independent.
	slices.SortFunc(entries, func(a, b entry) int {
		return cmp.Or(cmp.Compare(b.w, a.w), cmp.Compare(a.p, b.p), cmp.Compare(a.q, b.q))
	})
	assign := make([]int32, nparts)
	procTaken := make([]bool, nparts)
	partTaken := make([]bool, nparts)
	matched := 0
	for _, e := range entries {
		if procTaken[e.p] || partTaken[e.q] {
			continue
		}
		assign[e.q] = e.p
		procTaken[e.p] = true
		partTaken[e.q] = true
		matched++
	}
	// Leftovers have zero retained weight everywhere; the dense scan pairs
	// them lowest free processor to lowest free part, in order.
	if matched < nparts {
		p := 0
		for q := 0; q < nparts; q++ {
			if partTaken[q] {
				continue
			}
			for procTaken[p] {
				p++
			}
			assign[q] = int32(p)
			p++
		}
	}
	return assign, MovedWeight(oldOwner, newPart, w, assign)
}

// IdentityAssign is the no-remap baseline: part q goes to processor q.
func IdentityAssign(nparts int) []int32 {
	a := make([]int32, nparts)
	for i := range a {
		a[i] = int32(i)
	}
	return a
}

// MovedWeight is the total weight an assignment moves to another processor
// (PLUM's TotalV), for comparing Remap against the identity baseline.
func MovedWeight(oldOwner, newPart []int32, w []float64, assign []int32) float64 {
	moved := 0.0
	for i := range oldOwner {
		if assign[newPart[i]] != oldOwner[i] {
			moved += w[i]
		}
	}
	return moved
}
