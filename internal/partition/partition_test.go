package partition

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"o2k/internal/mesh"
)

func uniformPoints(n int, seed int64) (xs, ys, w []float64) {
	rng := rand.New(rand.NewSource(seed))
	xs = make([]float64, n)
	ys = make([]float64, n)
	w = make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
		w[i] = 1
	}
	return
}

// imbalance returns the heaviest part's weight over the mean part weight (1.0
// is perfect balance).
func imbalance(part []int32, w []float64, nparts int) float64 {
	sums := make([]float64, nparts)
	total := 0.0
	for i, p := range part {
		sums[p] += w[i]
		total += w[i]
	}
	return slices.Max(sums) * float64(nparts) / total
}

func TestRCBCoversAllParts(t *testing.T) {
	xs, ys, w := uniformPoints(1000, 1)
	for _, p := range []int{1, 2, 3, 7, 16, 64} {
		part := RCB(xs, ys, w, p)
		count := make([]int, p)
		for _, q := range part {
			if q < 0 || int(q) >= p {
				t.Fatalf("part %d out of range", q)
			}
			count[q]++
		}
		for q, c := range count {
			if c == 0 {
				t.Errorf("nparts=%d: part %d empty", p, q)
			}
		}
	}
}

func TestRCBBalance(t *testing.T) {
	xs, ys, w := uniformPoints(4096, 2)
	part := RCB(xs, ys, w, 16)
	if imb := imbalance(part, w, 16); imb > 1.05 {
		t.Fatalf("imbalance %v too high for uniform points", imb)
	}
}

func TestRCBWeighted(t *testing.T) {
	// Heavy points on the left half: the left parts must hold fewer points.
	n := 2000
	xs := make([]float64, n)
	ys := make([]float64, n)
	w := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i) / float64(n)
		ys[i] = 0.5
		if xs[i] < 0.5 {
			w[i] = 10
		} else {
			w[i] = 1
		}
	}
	part := RCB(xs, ys, w, 2)
	if imb := imbalance(part, w, 2); imb > 1.1 {
		t.Fatalf("weighted imbalance %v", imb)
	}
}

func TestRCBDeterministic(t *testing.T) {
	xs, ys, w := uniformPoints(500, 3)
	a := RCB(xs, ys, w, 8)
	b := RCB(xs, ys, w, 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RCB nondeterministic")
		}
	}
}

func TestRCBSpatialLocality(t *testing.T) {
	// Points in the same tight cluster should land in the same part.
	xs := []float64{0.1, 0.1001, 0.9, 0.9001}
	ys := []float64{0.1, 0.1001, 0.9, 0.9001}
	w := []float64{1, 1, 1, 1}
	part := RCB(xs, ys, w, 2)
	if part[0] != part[1] || part[2] != part[3] || part[0] == part[2] {
		t.Fatalf("clusters split: %v", part)
	}
}

func TestRCBPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nparts=0")
		}
	}()
	RCB([]float64{1}, []float64{1}, []float64{1}, 0)
}

func TestRemapIdentityWhenUnchanged(t *testing.T) {
	// New partition identical to old ownership: remap must retain 100%.
	old := []int32{0, 0, 1, 1, 2, 2, 3, 3}
	newPart := []int32{3, 3, 2, 2, 1, 1, 0, 0} // same groups, permuted labels
	w := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	assign, moved := Remap(old, newPart, w, 4)
	if moved != 0 || retained(moved, w) != 1 {
		t.Fatalf("remap failed to recognize permutation: moved %v", moved)
	}
	if assign[3] != 0 || assign[0] != 3 {
		t.Fatalf("assignment wrong: %v", assign)
	}
}

func TestRemapBeatsIdentity(t *testing.T) {
	// Random-ish relabeling: PLUM remap must move no more than identity.
	rng := rand.New(rand.NewSource(7))
	n, p := 1000, 8
	old := make([]int32, n)
	newPart := make([]int32, n)
	w := make([]float64, n)
	for i := range old {
		old[i] = int32(rng.Intn(p))
		// New partition correlates with old but relabeled by +3 mod p.
		if rng.Float64() < 0.8 {
			newPart[i] = (old[i] + 3) % int32(p)
		} else {
			newPart[i] = int32(rng.Intn(p))
		}
		w[i] = 1
	}
	_, remapMoved := Remap(old, newPart, w, p)
	identMoved := MovedWeight(old, newPart, w, IdentityAssign(p))
	if remapMoved > identMoved {
		t.Fatalf("remap moved %v > identity %v", remapMoved, identMoved)
	}
	if r := retained(remapMoved, w); r < 0.7 {
		t.Fatalf("remap retained only %v", r)
	}
}

func TestRemapAssignIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, p := 200, 6
		old := make([]int32, n)
		newPart := make([]int32, n)
		w := make([]float64, n)
		for i := range old {
			old[i] = int32(rng.Intn(p))
			newPart[i] = int32(rng.Intn(p))
			w[i] = rng.Float64()
		}
		assign, _ := Remap(old, newPart, w, p)
		seen := make([]bool, p)
		for _, a := range assign {
			if a < 0 || int(a) >= p || seen[a] {
				return false
			}
			seen[a] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func buildDecomp(t *testing.T, gridN, levels, nparts int) *Decomp {
	t.Helper()
	f := mesh.NewUnitSquare(gridN, levels)
	f.Adapt(mesh.DefaultFront(levels).At(0))
	m := f.Snapshot()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, m.NumTris())
	ys := make([]float64, m.NumTris())
	w := make([]float64, m.NumTris())
	for i := range xs {
		xs[i], ys[i] = m.Centroid(i)
		w[i] = 1
	}
	return NewDecomp(m, RCB(xs, ys, w, nparts), nparts)
}

func TestDecompOwnershipComplete(t *testing.T) {
	d := buildDecomp(t, 6, 2, 8)
	m := d.M
	// Every edge owned exactly once.
	seenE := make([]bool, m.NumEdges())
	for p := 0; p < d.P; p++ {
		for _, e := range d.OwnedEdges[p] {
			if seenE[e] {
				t.Fatalf("edge %d owned twice", e)
			}
			seenE[e] = true
		}
	}
	for e, s := range seenE {
		if !s {
			t.Fatalf("edge %d unowned", e)
		}
	}
	// Every used vertex owned exactly once.
	seenV := make(map[int32]bool)
	for p := 0; p < d.P; p++ {
		for _, v := range d.OwnedVerts[p] {
			if seenV[v] {
				t.Fatalf("vertex %d owned twice", v)
			}
			seenV[v] = true
		}
	}
	for v := int32(0); v < int32(m.NumVertsTotal()); v++ {
		if m.VertUsed(v) != seenV[v] {
			t.Fatalf("vertex %d: used=%v owned=%v", v, m.VertUsed(v), seenV[v])
		}
	}
}

func TestDecompBorderConsistency(t *testing.T) {
	d := buildDecomp(t, 6, 2, 8)
	for p := 0; p < d.P; p++ {
		if len(d.Border[p][p]) != 0 {
			t.Fatalf("proc %d has self border", p)
		}
		for q := 0; q < d.P; q++ {
			last := int32(-1)
			for _, v := range d.Border[p][q] {
				if d.VertOwner[v] != int32(q) {
					t.Fatalf("border[%d][%d] vertex %d owned by %d", p, q, v, d.VertOwner[v])
				}
				if v <= last {
					t.Fatalf("border[%d][%d] not ascending", p, q)
				}
				last = v
				// p must actually touch v through one of its edges.
				touched := false
				for _, e := range d.OwnedEdges[p] {
					if d.M.Edges[e][0] == v || d.M.Edges[e][1] == v {
						touched = true
						break
					}
				}
				if !touched {
					t.Fatalf("border[%d][%d] vertex %d not touched by %d", p, q, v, p)
				}
			}
		}
	}
}

// TestSweepLists checks the sweep lists against their definition on a
// refined mesh: clear[q] is the ascending set of q's owned-edge endpoints
// and owned vertices, and edgeA[q][j]/edgeB[q][j] are the endpoints of
// OwnedEdges[q][j].
func TestSweepLists(t *testing.T) {
	for _, nparts := range []int{1, 4, 16} {
		d := buildDecomp(t, 8, 3, nparts)
		clear, edgeA, edgeB := d.SweepLists()
		if len(clear) != nparts || len(edgeA) != nparts || len(edgeB) != nparts {
			t.Fatalf("P=%d: %d/%d/%d lists", nparts, len(clear), len(edgeA), len(edgeB))
		}
		for q := range nparts {
			want := map[int32]bool{}
			for _, v := range d.OwnedVerts[q] {
				want[v] = true
			}
			if len(edgeA[q]) != len(d.OwnedEdges[q]) || len(edgeB[q]) != len(d.OwnedEdges[q]) {
				t.Fatalf("P=%d proc %d: %d/%d endpoints for %d edges", nparts, q, len(edgeA[q]), len(edgeB[q]), len(d.OwnedEdges[q]))
			}
			for j, e := range d.OwnedEdges[q] {
				if edgeA[q][j] != d.M.Edges[e][0] || edgeB[q][j] != d.M.Edges[e][1] {
					t.Fatalf("P=%d proc %d edge %d: endpoints %d,%d, want %v", nparts, q, e, edgeA[q][j], edgeB[q][j], d.M.Edges[e])
				}
				want[d.M.Edges[e][0]], want[d.M.Edges[e][1]] = true, true
			}
			for j, v := range clear[q] {
				if j > 0 && v <= clear[q][j-1] {
					t.Fatalf("P=%d proc %d: clear list not strictly ascending at %d", nparts, q, j)
				}
				if !want[v] {
					t.Fatalf("P=%d proc %d: clear list holds vertex %d, which q neither owns nor touches", nparts, q, v)
				}
			}
			if len(clear[q]) != len(want) {
				t.Fatalf("P=%d proc %d: clear list has %d vertices, want %d", nparts, q, len(clear[q]), len(want))
			}
		}
	}
}

// edgeCut counts the edges whose two triangles have different owners.
func edgeCut(d *Decomp) int {
	owner := make([]int32, d.M.NumTris())
	for p, tris := range d.OwnedTris {
		for _, t := range tris {
			owner[t] = int32(p)
		}
	}
	cut := 0
	for _, ts := range d.M.EdgeTris {
		if ts[1] >= 0 && owner[ts[0]] != owner[ts[1]] {
			cut++
		}
	}
	return cut
}

func TestDecompEdgeCutPositive(t *testing.T) {
	d := buildDecomp(t, 6, 2, 8)
	if edgeCut(d) == 0 {
		t.Fatal("8-way partition should cut edges")
	}
	// Single part: no cut, no borders.
	d1 := buildDecomp(t, 6, 2, 1)
	if edgeCut(d1) != 0 {
		t.Fatal("1-way partition has cut edges")
	}
	if len(d1.Border[0][0]) != 0 {
		t.Fatal("1-way partition has a border")
	}
}

func TestDecompDataMemoryOrdering(t *testing.T) {
	d := buildDecomp(t, 8, 2, 16)
	mpB, shmB, sasB := d.DataMemory(3)
	if !(sasB < shmB && shmB < mpB) {
		t.Fatalf("memory ordering violated: mp=%d shm=%d sas=%d", mpB, shmB, sasB)
	}
}

func TestSortInt32s(t *testing.T) {
	f := func(vals []int32) bool {
		cp := append([]int32(nil), vals...)
		sortInt32s(cp)
		for i := 1; i < len(cp); i++ {
			if cp[i-1] > cp[i] {
				return false
			}
		}
		return len(cp) == len(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
