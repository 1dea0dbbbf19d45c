package nbody

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPlummerDeterministic(t *testing.T) {
	a := NewPlummer(256, 42)
	b := NewPlummer(256, 42)
	for i := 0; i < 256; i++ {
		if a.X[i] != b.X[i] || a.VY[i] != b.VY[i] {
			t.Fatal("generation not deterministic")
		}
	}
	c := NewPlummer(256, 43)
	same := true
	for i := 0; i < 256; i++ {
		if a.X[i] != c.X[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical bodies")
	}
}

func TestPlummerMassNormalized(t *testing.T) {
	b := NewPlummer(1000, 1)
	total := 0.0
	for _, m := range b.M {
		total += m
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("total mass %v", total)
	}
}

func TestBoundsContainAll(t *testing.T) {
	b := NewPlummer(512, 7)
	x0, y0, size := b.Bounds()
	for i := 0; i < b.N(); i++ {
		if b.X[i] < x0 || b.X[i] >= x0+size || b.Y[i] < y0 || b.Y[i] >= y0+size {
			t.Fatalf("body %d outside bounds", i)
		}
	}
}

func TestMortonOrdering(t *testing.T) {
	// Interleave must be monotone per dimension and distinguish quadrants.
	if interleave(0) != 0 || interleave(1) != 1 || interleave(2) != 4 || interleave(3) != 5 {
		t.Fatal("interleave wrong")
	}
	b := &Bodies{X: []float64{0.1, 0.9}, Y: []float64{0.1, 0.9}, M: []float64{1, 1},
		VX: make([]float64, 2), VY: make([]float64, 2)}
	x0, y0, s := b.Bounds()
	if b.MortonKey(0, x0, y0, s) >= b.MortonKey(1, x0, y0, s) {
		t.Fatal("morton order violated")
	}
}

func TestTreeStructure(t *testing.T) {
	b := NewPlummer(1000, 3)
	tr := Build(b)
	// Every body appears in exactly one leaf.
	seen := make([]int, b.N())
	for c := range tr.Cells {
		for _, i := range tr.Cells[c].Bodies {
			seen[i]++
		}
	}
	for i, s := range seen {
		if s != 1 {
			t.Fatalf("body %d in %d leaves", i, s)
		}
	}
	// Root mass equals total mass.
	if math.Abs(tr.Cells[tr.Root].CM-1) > 1e-9 {
		t.Fatalf("root mass %v", tr.Cells[tr.Root].CM)
	}
	// Leaf sizes bounded.
	for c := range tr.Cells {
		if tr.Cells[c].Bodies != nil && len(tr.Cells[c].Bodies) > LeafCap {
			t.Fatalf("leaf with %d bodies", len(tr.Cells[c].Bodies))
		}
	}
}

func TestTreeDeterministic(t *testing.T) {
	b := NewPlummer(500, 9)
	t1 := Build(b)
	t2 := Build(b)
	if t1.NumCells() != t2.NumCells() {
		t.Fatal("cell counts differ")
	}
	for c := range t1.Cells {
		if t1.Cells[c].CX != t2.Cells[c].CX || t1.Cells[c].Child != t2.Cells[c].Child {
			t.Fatalf("cell %d differs", c)
		}
	}
}

func TestAccelMatchesBruteForceLooseTheta(t *testing.T) {
	// With theta=0 the traversal never opens by approximation: it must equal
	// the direct O(N²) sum.
	b := NewPlummer(200, 5)
	tr := Build(b)
	for _, i := range []int32{0, 57, 199} {
		ax, ay, _ := tr.DirectAccel(b, i, 0)
		var bx, by float64
		for j := 0; j < b.N(); j++ {
			if int32(j) == i {
				continue
			}
			dx, dy := b.X[j]-b.X[i], b.Y[j]-b.Y[i]
			d2 := dx*dx + dy*dy + Soft2
			inv := 1 / (d2 * math.Sqrt(d2))
			bx += G * b.M[j] * dx * inv
			by += G * b.M[j] * dy * inv
		}
		if math.Abs(ax-bx) > 1e-9*math.Max(1, math.Abs(bx)) ||
			math.Abs(ay-by) > 1e-9*math.Max(1, math.Abs(by)) {
			t.Fatalf("body %d: tree (%v,%v) vs direct (%v,%v)", i, ax, ay, bx, by)
		}
	}
}

func TestAccelApproximationReasonable(t *testing.T) {
	b := NewPlummer(500, 11)
	tr := Build(b)
	var errSum, magSum float64
	for i := int32(0); i < 100; i++ {
		ax, ay, _ := tr.DirectAccel(b, i, ThetaBH)
		ex, ey, _ := tr.DirectAccel(b, i, 0)
		errSum += math.Hypot(ax-ex, ay-ey)
		magSum += math.Hypot(ex, ey)
	}
	if errSum/magSum > 0.05 {
		t.Fatalf("BH relative error %v too large", errSum/magSum)
	}
}

func TestAccelFewerInteractionsWithTheta(t *testing.T) {
	b := NewPlummer(2000, 13)
	tr := Build(b)
	_, _, exact := tr.DirectAccel(b, 0, 0)
	_, _, approx := tr.DirectAccel(b, 0, ThetaBH)
	if approx >= exact {
		t.Fatalf("theta did not prune: %d vs %d", approx, exact)
	}
	if approx < 10 {
		t.Fatalf("suspiciously few interactions: %d", approx)
	}
}

func TestCostZones(t *testing.T) {
	b := NewPlummer(4000, 17)
	cost := make([]float64, b.N())
	for i := range cost {
		cost[i] = 1
	}
	part := CostZones(b, cost, 8)
	counts := make([]int, 8)
	for _, p := range part {
		if p < 0 || p >= 8 {
			t.Fatalf("part %d out of range", p)
		}
		counts[p]++
	}
	for p, c := range counts {
		if c < 350 || c > 650 {
			t.Fatalf("zone %d has %d bodies (poor balance)", p, c)
		}
	}
}

func TestCostZonesWeighted(t *testing.T) {
	b := NewPlummer(1000, 19)
	cost := make([]float64, b.N())
	for i := range cost {
		cost[i] = 1
	}
	cost[0] = 500 // one very expensive body
	part := CostZones(b, cost, 4)
	// The expensive body's zone should hold far fewer bodies.
	zone := part[0]
	count := 0
	for _, p := range part {
		if p == zone {
			count++
		}
	}
	if count > 400 {
		t.Fatalf("cost-zones ignored weights: %d bodies share the heavy zone", count)
	}
}

func TestStepConservesSanity(t *testing.T) {
	b := NewPlummer(500, 23)
	ax := make([]float64, b.N())
	ay := make([]float64, b.N())
	inter := make([]int, b.N())
	e0 := b.Energy()
	for s := 0; s < 5; s++ {
		tr := Build(b)
		Step(b, tr, ThetaBH, ax, ay, inter)
	}
	e1 := b.Energy()
	if math.IsNaN(e1) || e1 > 50*(e0+1) {
		t.Fatalf("energy blew up: %v -> %v", e0, e1)
	}
	if b.Checksum() == 0 {
		t.Fatal("zero checksum")
	}
}

func TestStepDeterministic(t *testing.T) {
	run := func() float64 {
		b := NewPlummer(300, 29)
		ax := make([]float64, b.N())
		ay := make([]float64, b.N())
		inter := make([]int, b.N())
		for s := 0; s < 3; s++ {
			Step(b, Build(b), ThetaBH, ax, ay, inter)
		}
		return b.Checksum()
	}
	if run() != run() {
		t.Fatal("reference step nondeterministic")
	}
}

func TestInterleaveProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		// Interleaved keys must preserve per-dimension ordering when the
		// other dimension is fixed.
		if a == b {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return interleave(uint32(lo)) < interleave(uint32(hi))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Checksum folds positions into a deterministic digest (index order).
func (b *Bodies) Checksum() float64 {
	s := 0.0
	for i := 0; i < b.N(); i++ {
		s += b.X[i] + 2*b.Y[i]
	}
	return s
}
