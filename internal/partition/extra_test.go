package partition

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"o2k/internal/mesh"
)

// Property: for any random triangle partition of a valid snapshot, the
// decomposition invariants hold — complete disjoint ownership and border
// lists pointing at real owners.
func TestDecompPropertyRandomPartitions(t *testing.T) {
	f := mesh.NewUnitSquare(5, 2)
	f.Adapt(mesh.DefaultFront(2).At(1))
	m := f.Snapshot()
	prop := func(seed int64, p8 uint8) bool {
		nparts := int(p8)%6 + 2
		rng := rand.New(rand.NewSource(seed))
		owner := make([]int32, m.NumTris())
		for i := range owner {
			owner[i] = int32(rng.Intn(nparts))
		}
		d := NewDecomp(m, owner, nparts)
		// Edges owned exactly once, by the first adjacent tri's owner.
		for e := 0; e < m.NumEdges(); e++ {
			if d.EdgeOwner[e] != owner[m.EdgeTris[e][0]] {
				return false
			}
		}
		// Borders: owner correct, touch relation plausible.
		for p := 0; p < nparts; p++ {
			for q := 0; q < nparts; q++ {
				for _, v := range d.Border[p][q] {
					if d.VertOwner[v] != int32(q) || p == q {
						return false
					}
				}
			}
		}
		// Owned vertex lists partition the used vertices.
		count := 0
		for p := 0; p < nparts; p++ {
			count += len(d.OwnedVerts[p])
		}
		return count == m.NumVertsUsed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestRemapSinglePart(t *testing.T) {
	old := []int32{0, 0, 0}
	newPart := []int32{0, 0, 0}
	w := []float64{1, 2, 3}
	assign, st := Remap(old, newPart, w, 1)
	if assign[0] != 0 || st.TotalW != 0 || st.Retained != 1 {
		t.Fatalf("degenerate remap wrong: %v %+v", assign, st)
	}
}

func TestRemapAllWeightZero(t *testing.T) {
	old := []int32{0, 1}
	newPart := []int32{1, 0}
	w := []float64{0, 0}
	_, st := Remap(old, newPart, w, 2)
	if st.Retained != 1 {
		t.Fatalf("zero-weight retained = %v", st.Retained)
	}
}

func TestRCBSinglePoint(t *testing.T) {
	part := RCB([]float64{0.5}, []float64{0.5}, []float64{1}, 4)
	if part[0] < 0 || part[0] >= 4 {
		t.Fatalf("single point part %d", part[0])
	}
}

// rcbSortPerLevel is RCB as it was written before it sorted each axis once:
// every level sorts its subset along the chosen axis. RCB must equal it.
func rcbSortPerLevel(xs, ys, w []float64, nparts int) []int32 {
	out := make([]int32, len(xs))
	idx := make([]int32, len(xs))
	for i := range idx {
		idx[i] = int32(i)
	}
	var rec func(idx []int32, base, nparts int)
	rec = func(idx []int32, base, nparts int) {
		if nparts == 1 {
			for _, i := range idx {
				out[i] = int32(base)
			}
			return
		}
		if len(idx) == 0 {
			return
		}
		minX, maxX, minY, maxY := xs[idx[0]], xs[idx[0]], ys[idx[0]], ys[idx[0]]
		for _, i := range idx {
			minX, maxX = min(minX, xs[i]), max(maxX, xs[i])
			minY, maxY = min(minY, ys[i]), max(maxY, ys[i])
		}
		coord := xs
		if maxY-minY > maxX-minX {
			coord = ys
		}
		sort.Slice(idx, func(a, b int) bool {
			if ca, cb := coord[idx[a]], coord[idx[b]]; ca != cb {
				return ca < cb
			}
			return idx[a] < idx[b]
		})
		left, right := nparts/2, nparts-nparts/2
		var total float64
		for _, i := range idx {
			total += w[i]
		}
		target := total * float64(left) / float64(nparts)
		cum, cut := 0.0, 0
		for cut < len(idx)-1 {
			cum += w[idx[cut]]
			cut++
			if cum >= target {
				break
			}
		}
		cut = max(cut, 1)
		if left > 0 && cut > len(idx)-right && len(idx) >= nparts {
			cut = len(idx) - right
		}
		rec(idx[:cut], base, left)
		rec(idx[cut:], base+left, right)
	}
	rec(idx, 0, nparts)
	return out
}

// TestRCBMatchesSortPerLevel checks RCB against rcbSortPerLevel on random
// inputs: coordinates drawn from a few values (ties on both axes, duplicate
// points, half the time bounding boxes as wide as they are tall), zero
// weights among them, part counts that are not powers of two and part counts
// above the number of points.
func TestRCBMatchesSortPerLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := range 300 {
		n := rng.Intn(200)
		grid := 1 + rng.Intn(12)
		yScale := []float64{0.37, 1 / float64(grid)}[trial%2]
		xs, ys, w := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(grid)) / float64(grid)
			ys[i] = float64(rng.Intn(grid)) * yScale
			if rng.Intn(4) > 0 {
				w[i] = float64(rng.Intn(5))
			}
		}
		nparts := 1 + rng.Intn(max(2*n, 8))
		if got, want := RCB(xs, ys, w, nparts), rcbSortPerLevel(xs, ys, w, nparts); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d, nparts=%d): RCB %v, sort per level %v", trial, n, nparts, got, want)
		}
	}
}

func TestRCBDegenerateCoordinates(t *testing.T) {
	// All points identical: must still terminate and assign valid parts.
	n := 64
	xs := make([]float64, n)
	ys := make([]float64, n)
	w := make([]float64, n)
	for i := range xs {
		xs[i], ys[i], w[i] = 0.5, 0.5, 1
	}
	part := RCB(xs, ys, w, 8)
	counts := make([]int, 8)
	for _, p := range part {
		counts[p]++
	}
	for q, c := range counts {
		if c != 8 {
			t.Fatalf("degenerate RCB zone %d has %d points", q, c)
		}
	}
}
