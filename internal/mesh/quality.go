package mesh

import (
	"fmt"
	"math"
)

// Structural validation of snapshots.

// Validate checks the structural invariants of a conforming snapshot:
//   - every triangle has three distinct, in-range vertices and positive area;
//   - every edge borders one or two triangles (manifold);
//   - the mesh covers the unit square exactly (areas sum to 1);
//   - no triangle corner lies strictly inside another triangle's edge
//     (conformity: no hanging vertices survive extraction).
func (m *Mesh) Validate() error {
	if len(m.Tris) == 0 {
		return fmt.Errorf("mesh: empty snapshot")
	}
	nv := int32(len(m.VX))
	for t, v := range m.Tris {
		if v[0] == v[1] || v[1] == v[2] || v[0] == v[2] {
			return fmt.Errorf("mesh: triangle %d has repeated vertices %v", t, v)
		}
		for _, vi := range v {
			if vi < 0 || vi >= nv {
				return fmt.Errorf("mesh: triangle %d vertex %d out of range", t, vi)
			}
		}
		if m.Area(t) <= 0 {
			return fmt.Errorf("mesh: triangle %d has non-positive area", t)
		}
	}
	for e, ts := range m.EdgeTris {
		if ts[0] == nilIdx {
			return fmt.Errorf("mesh: edge %d has no triangles", e)
		}
	}
	if a := m.TotalArea(); math.Abs(a-1.0) > 1e-9 {
		return fmt.Errorf("mesh: total area %v != 1", a)
	}
	// Conformity: for every boundaryless edge shared by exactly one triangle,
	// it must lie on the domain boundary.
	for e, ts := range m.EdgeTris {
		if ts[1] != nilIdx {
			continue
		}
		a, b := m.Edges[e][0], m.Edges[e][1]
		if !onBoundary(m.VX[a], m.VY[a]) || !onBoundary(m.VX[b], m.VY[b]) {
			return fmt.Errorf("mesh: interior edge %d (%d-%d) has only one triangle (hanging vertex?)",
				e, a, b)
		}
	}
	return nil
}

func onBoundary(x, y float64) bool {
	const eps = 1e-12
	return x < eps || x > 1-eps || y < eps || y > 1-eps
}
