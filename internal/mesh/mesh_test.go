package mesh

import (
	"math"
	"testing"
	"testing/quick"
)

func leafCount(f *Forest) int {
	n := 0
	for t := range f.tris {
		if f.tris[t].isLeaf() {
			n++
		}
	}
	return n
}

// levelHistogram is the triangle count per refinement level.
func levelHistogram(m *Mesh) map[int]int {
	h := make(map[int]int)
	for _, l := range m.Level {
		h[int(l)]++
	}
	return h
}

func TestBaseMesh(t *testing.T) {
	f := NewUnitSquare(4, 3)
	if len(f.tris) != 32 {
		t.Fatalf("base tris = %d, want 32", len(f.tris))
	}
	if len(f.VX) != 25 {
		t.Fatalf("base verts = %d, want 25", len(f.VX))
	}
	m := f.Snapshot()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumTris() != 32 {
		t.Fatalf("snapshot tris = %d", m.NumTris())
	}
	if math.Abs(m.TotalArea()-1) > 1e-12 {
		t.Fatalf("area = %v", m.TotalArea())
	}
}

func TestBadArgsPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewUnitSquare(0, 3) },
		func() { NewUnitSquare(4, -1) },
		func() { NewUnitSquare(4, 31) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestUniformRefinement(t *testing.T) {
	f := NewUnitSquare(2, 2)
	st := f.Adapt(func(x, y float64) int { return 1 })
	if st.Refined != 8 {
		t.Fatalf("refined %d, want 8", st.Refined)
	}
	m := f.Snapshot()
	if m.NumTris() != 32 {
		t.Fatalf("tris = %d, want 32", m.NumTris())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for tt := range m.Tris {
		if m.Green[tt] {
			t.Fatal("uniform refinement must produce no greens")
		}
		if m.Level[tt] != 1 {
			t.Fatalf("level = %d", m.Level[tt])
		}
	}
}

func TestLocalRefinementProducesGreens(t *testing.T) {
	f := NewUnitSquare(4, 2)
	// Refine only near the origin corner.
	f.Adapt(func(x, y float64) int {
		if x < 0.3 && y < 0.3 {
			return 2
		}
		return 0
	})
	m := f.Snapshot()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	greens := 0
	for _, g := range m.Green {
		if g {
			greens++
		}
	}
	if greens == 0 {
		t.Fatal("local refinement must need green closures")
	}
	hist := levelHistogram(m)
	if hist[2] == 0 || hist[0] == 0 {
		t.Fatalf("expected mixed levels, got %v", hist)
	}
}

func TestCoarseningRestoresBase(t *testing.T) {
	f := NewUnitSquare(3, 3)
	f.Adapt(func(x, y float64) int { return 2 })
	refined := leafCount(f)
	if refined != 18*16 {
		t.Fatalf("after refine: %d leaves", refined)
	}
	st := f.Adapt(func(x, y float64) int { return 0 })
	if leafCount(f) != 18 {
		t.Fatalf("after coarsen: %d leaves, want 18", leafCount(f))
	}
	if st.Coarsened == 0 {
		t.Fatal("no coarsening recorded")
	}
	m := f.Snapshot()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumTris() != 18 {
		t.Fatalf("snapshot after coarsen: %d tris", m.NumTris())
	}
}

func TestBalanceInvariant(t *testing.T) {
	f := NewUnitSquare(4, 4)
	// A needle-sharp request: max level at a point, zero elsewhere. The
	// balance passes must grade the transition.
	f.Adapt(func(x, y float64) int {
		if math.Hypot(x-0.5, y-0.5) < 0.05 {
			return 4
		}
		return 0
	})
	// Invariant: edge-adjacent leaves differ by at most one level.
	m := f.Snapshot()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for e, ts := range m.EdgeTris {
		if ts[1] == nilIdx {
			continue
		}
		d := int(m.Level[ts[0]]) - int(m.Level[ts[1]])
		if d < -1 || d > 1 {
			t.Fatalf("edge %d joins levels %d and %d", e, m.Level[ts[0]], m.Level[ts[1]])
		}
	}
}

func TestMidpointReuse(t *testing.T) {
	f := NewUnitSquare(2, 2)
	f.Adapt(func(x, y float64) int { return 1 })
	nv := len(f.VX)
	f.Adapt(func(x, y float64) int { return 0 }) // coarsen
	f.Adapt(func(x, y float64) int { return 1 }) // re-refine
	if len(f.VX) != nv {
		t.Fatalf("midpoints not reused: %d vs %d", len(f.VX), nv)
	}
}

func TestMovingFrontCycles(t *testing.T) {
	f := NewUnitSquare(8, 3)
	w := DefaultFront(3)
	prevCenterTris := -1
	for step := 0; step < 5; step++ {
		st := f.Adapt(w.At(step))
		m := f.Snapshot()
		if err := m.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if st.Passes == 0 {
			t.Fatalf("step %d: no passes", step)
		}
		// The refined region must track the front: count max-level tris.
		hist := levelHistogram(m)
		if hist[3] == 0 {
			t.Fatalf("step %d: no max-level triangles near front", step)
		}
		_ = prevCenterTris
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	build := func() *Mesh {
		f := NewUnitSquare(6, 3)
		w := DefaultFront(3)
		for step := 0; step < 3; step++ {
			f.Adapt(w.At(step))
		}
		return f.Snapshot()
	}
	a, b := build(), build()
	if a.NumTris() != b.NumTris() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("sizes differ: %d/%d vs %d/%d", a.NumTris(), a.NumEdges(), b.NumTris(), b.NumEdges())
	}
	for i := range a.Tris {
		if a.Tris[i] != b.Tris[i] {
			t.Fatalf("triangle %d differs: %v vs %v", i, a.Tris[i], b.Tris[i])
		}
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestEdgesManifold(t *testing.T) {
	f := NewUnitSquare(5, 2)
	f.Adapt(DefaultFront(2).At(0))
	m := f.Snapshot()
	// Euler check for a disc: V - E + T = 1.
	if v, e, tt := m.NumVertsUsed(), m.NumEdges(), m.NumTris(); v-e+tt != 1 {
		t.Fatalf("Euler characteristic %d (V=%d E=%d T=%d)", v-e+tt, v, e, tt)
	}
}

// worstAspect is the worst ratio of longest edge to twice the inradius over
// all triangles (1.0 ≈ equilateral; larger is worse).
func worstAspect(m *Mesh) float64 {
	worst := 0.0
	for t, v := range m.Tris {
		var l [3]float64
		for i := 0; i < 3; i++ {
			a, b := v[i], v[(i+1)%3]
			l[i] = math.Hypot(m.VX[a]-m.VX[b], m.VY[a]-m.VY[b])
		}
		area := m.Area(t)
		if area == 0 {
			return math.Inf(1)
		}
		inr := area / ((l[0] + l[1] + l[2]) / 2)
		worst = math.Max(worst, math.Max(l[0], math.Max(l[1], l[2]))/(2*inr))
	}
	return worst
}

func TestAspectRatioBounded(t *testing.T) {
	f := NewUnitSquare(6, 3)
	w := DefaultFront(3)
	for step := 0; step < 4; step++ {
		f.Adapt(w.At(step))
		m := f.Snapshot()
		if wa := worstAspect(m); wa > 6 {
			t.Fatalf("step %d: aspect ratio %v too bad", step, wa)
		}
	}
}

func TestIndicatorClamped(t *testing.T) {
	w := DefaultFront(3)
	ind := w.At(0)
	f := func(x, y float64) bool {
		// Map arbitrary floats into the unit square.
		x = math.Abs(x) - math.Floor(math.Abs(x))
		y = math.Abs(y) - math.Floor(math.Abs(y))
		l := ind(x, y)
		return l >= 0 && l <= 3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInitialFieldPeaksAtFront(t *testing.T) {
	w := DefaultFront(3)
	on := w.InitialField(w.X0+w.Radius, w.Y0)
	off := w.InitialField(w.X0+3*w.Radius, w.Y0)
	if on < 0.99 || off > 0.1 {
		t.Fatalf("field shape wrong: on=%v off=%v", on, off)
	}
}

// Property: area is conserved through any sequence of adaptation cycles.
func TestAreaConservedProperty(t *testing.T) {
	f := func(seed uint8) bool {
		fr := NewUnitSquare(3, 3)
		for step := 0; step < 4; step++ {
			s := float64(seed%7)/7.0 + 0.1
			fr.Adapt(func(x, y float64) int {
				if math.Hypot(x-s, y-s) < 0.3 {
					return int(seed) % 4
				}
				return 0
			})
			m := fr.Snapshot()
			if math.Abs(m.TotalArea()-1) > 1e-9 {
				return false
			}
			if m.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
