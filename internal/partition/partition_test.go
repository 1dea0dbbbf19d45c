package partition

import (
	"math/rand"
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
	if imb := Imbalance(part, w, 16); imb > 1.05 {
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
	if imb := Imbalance(part, w, 2); imb > 1.1 {
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

func TestImbalanceEdgeCases(t *testing.T) {
	if Imbalance(nil, nil, 4) != 1 {
		t.Error("empty imbalance should be 1")
	}
	part := []int32{0, 1}
	w := []float64{0, 0}
	if Imbalance(part, w, 2) != 1 {
		t.Error("zero-weight imbalance should be 1")
	}
}

func TestRemapIdentityWhenUnchanged(t *testing.T) {
	// New partition identical to old ownership: remap must retain 100%.
	old := []int32{0, 0, 1, 1, 2, 2, 3, 3}
	newPart := []int32{3, 3, 2, 2, 1, 1, 0, 0} // same groups, permuted labels
	w := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	assign, st := Remap(old, newPart, w, 4)
	if st.TotalW != 0 || st.Retained != 1 {
		t.Fatalf("remap failed to recognize permutation: %+v", st)
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
	_, remapSt := Remap(old, newPart, w, p)
	identSt := MigrationStats(old, newPart, w, IdentityAssign(p), p)
	if remapSt.TotalW > identSt.TotalW {
		t.Fatalf("remap moved %v > identity %v", remapSt.TotalW, identSt.TotalW)
	}
	if remapSt.Retained < 0.7 {
		t.Fatalf("remap retained only %v", remapSt.Retained)
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

func TestDecompEdgeCutPositive(t *testing.T) {
	d := buildDecomp(t, 6, 2, 8)
	if d.EdgeCut == 0 {
		t.Fatal("8-way partition should cut edges")
	}
	// Single part: no cut, no borders.
	d1 := buildDecomp(t, 6, 2, 1)
	if d1.EdgeCut != 0 {
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
