package solver

import (
	"math"
	"testing"

	"o2k/internal/mesh"
)

func snapshot(t *testing.T) *mesh.Mesh {
	t.Helper()
	f := mesh.NewUnitSquare(6, 2)
	f.Adapt(mesh.DefaultFront(2).At(0))
	m := f.Snapshot()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

func initField(m *mesh.Mesh) []float64 {
	w := mesh.DefaultFront(2)
	u := make([]float64, m.NumVertsTotal())
	for v := range u {
		if m.VertUsed(int32(v)) {
			u[v] = w.InitialField(m.VX[v], m.VY[v])
		}
	}
	return u
}

func TestDegrees(t *testing.T) {
	m := snapshot(t)
	deg := Degrees(m)
	// Sum of degrees = 2 * edges.
	sum := int32(0)
	for _, d := range deg {
		sum += d
	}
	if int(sum) != 2*m.NumEdges() {
		t.Fatalf("degree sum %d != 2E %d", sum, 2*m.NumEdges())
	}
	// Used vertices have degree >= 2 on a conforming 2-D mesh.
	for v, d := range deg {
		if m.VertUsed(int32(v)) && d < 2 {
			t.Fatalf("vertex %d degree %d", v, d)
		}
		if !m.VertUsed(int32(v)) && d != 0 {
			t.Fatalf("unused vertex %d has degree %d", v, d)
		}
	}
}

func TestReferenceSmooths(t *testing.T) {
	m := snapshot(t)
	u := initField(m)
	varBefore := fieldVariance(m, u)
	Reference(m, u, 20)
	varAfter := fieldVariance(m, u)
	if varAfter >= varBefore {
		t.Fatalf("relaxation did not smooth: %v -> %v", varBefore, varAfter)
	}
	for v := range u {
		if math.IsNaN(u[v]) || math.IsInf(u[v], 0) {
			t.Fatal("field blew up")
		}
	}
}

func TestReferenceConservesMeanApprox(t *testing.T) {
	// Graph-Laplacian smoothing with symmetric edge fluxes conserves the
	// degree-weighted total exactly except for boundary effects; the plain
	// sum must stay bounded.
	m := snapshot(t)
	u := initField(m)
	sum := func() (s float64) {
		for v := range u {
			if m.VertUsed(int32(v)) {
				s += u[v]
			}
		}
		return s
	}
	before := sum()
	Reference(m, u, 10)
	after := sum()
	if math.Abs(after) > 10*math.Abs(before)+1 {
		t.Fatalf("sum drifted wildly: %v -> %v", before, after)
	}
}

func TestReferenceDeterministic(t *testing.T) {
	m := snapshot(t)
	u1 := initField(m)
	u2 := initField(m)
	Reference(m, u1, 7)
	Reference(m, u2, 7)
	for v := range u1 {
		if u1[v] != u2[v] {
			t.Fatal("reference nondeterministic")
		}
	}
}

func TestFluxAntisymmetric(t *testing.T) {
	if Flux(1, 3) != -Flux(3, 1) {
		t.Fatal("flux not antisymmetric")
	}
	if Flux(2, 2) != 0 {
		t.Fatal("flux of equal values must vanish")
	}
}

func TestUpdateFixedPoint(t *testing.T) {
	// Zero residual: value unchanged.
	if Update(5, 0, 4) != 5 {
		t.Fatal("update moved a converged value")
	}
	// Positive residual raises the value.
	if Update(5, 1, 4) <= 5 {
		t.Fatal("update direction wrong")
	}
}

func fieldVariance(m *mesh.Mesh, u []float64) float64 {
	n, sum := 0, 0.0
	for v := range u {
		if m.VertUsed(int32(v)) {
			sum += u[v]
			n++
		}
	}
	mean := sum / float64(n)
	va := 0.0
	for v := range u {
		if m.VertUsed(int32(v)) {
			d := u[v] - mean
			va += d * d
		}
	}
	return va / float64(n)
}
