package mesh

// Mesh is one conforming snapshot of the forest's leaves: the structure the
// solver, partitioner, and applications work on between adaptations.
//
// Vertex IDs are the forest's stable global IDs; VX/VY alias the forest's
// coordinate arrays (treat them as read-only). Triangles are emitted in
// deterministic order: leaves in arena order, each leaf contributing one
// triangle or its green closure fan.
type Mesh struct {
	VX, VY []float64  // vertex coordinates by global vertex ID (read-only)
	Tris   [][3]int32 // conforming triangles
	Level  []int8     // refinement level of the source leaf, per triangle
	Green  []bool     // true if the triangle is a green closure

	Edges    [][2]int32 // unique undirected edges (a < b)
	EdgeTris [][2]int32 // the one or two triangles on each edge (-1 if boundary)

	used  []bool // vertex in use by this snapshot
	nUsed int
}

// Snapshot extracts the current conforming mesh, closing hanging vertices
// with green triangles (one hanging edge -> 2 triangles, two -> 3,
// three -> 4). The balance invariant guarantees no edge has more than one
// hanging vertex.
func (f *Forest) Snapshot() *Mesh {
	f.rebuildCornerUse()
	m := &Mesh{VX: f.VX, VY: f.VY}

	emit := func(a, b, c int32, lvl int8, green bool) {
		m.Tris = append(m.Tris, [3]int32{a, b, c})
		m.Level = append(m.Level, lvl)
		m.Green = append(m.Green, green)
	}

	for t := range f.tris {
		tr := &f.tris[t]
		if !tr.isLeaf() {
			continue
		}
		v0, v1, v2 := tr.v[0], tr.v[1], tr.v[2]
		m0 := f.hangingMid(v0, v1)
		m1 := f.hangingMid(v1, v2)
		m2 := f.hangingMid(v2, v0)
		n := 0
		for _, mm := range [3]int32{m0, m1, m2} {
			if mm != nilIdx {
				n++
			}
		}
		lvl := tr.level
		switch n {
		case 0:
			emit(v0, v1, v2, lvl, false)
		case 1:
			// Rotate so the hanging edge is (v0,v1) with midpoint m0.
			switch {
			case m1 != nilIdx:
				v0, v1, v2, m0 = v1, v2, v0, m1
			case m2 != nilIdx:
				v0, v1, v2, m0 = v2, v0, v1, m2
			}
			emit(v0, m0, v2, lvl, true)
			emit(m0, v1, v2, lvl, true)
		case 2:
			// Rotate so the unsplit edge is (v2,v0): hanging on (v0,v1) and
			// (v1,v2) with midpoints m0, m1.
			switch {
			case m0 == nilIdx: // hanging on e1,e2
				v0, v1, v2, m0, m1 = v1, v2, v0, m1, m2
			case m1 == nilIdx: // hanging on e2,e0
				v0, v1, v2, m0, m1 = v2, v0, v1, m2, m0
			}
			emit(m0, v1, m1, lvl, true)
			emit(v0, m0, m1, lvl, true)
			emit(v0, m1, v2, lvl, true)
		case 3:
			emit(v0, m0, m2, lvl, true)
			emit(m0, v1, m1, lvl, true)
			emit(m2, m1, v2, lvl, true)
			emit(m0, m1, m2, lvl, true)
		}
	}
	m.buildEdges()
	return m
}

// buildEdges constructs the unique edge list and edge-triangle adjacency in
// deterministic (triangle, corner) order.
func (m *Mesh) buildEdges() {
	type ek = [2]int32
	idx := make(map[ek]int32, len(m.Tris)*3/2)
	m.used = make([]bool, len(m.VX))
	for t, tv := range m.Tris {
		for i := 0; i < 3; i++ {
			a, b := tv[i], tv[(i+1)%3]
			m.used[a] = true
			k := edgeKey(a, b)
			if e, ok := idx[k]; ok {
				if m.EdgeTris[e][1] != nilIdx {
					// A conforming 2-manifold mesh has at most two triangles
					// per edge; three indicates an extraction bug.
					panic("mesh: non-manifold edge")
				}
				m.EdgeTris[e][1] = int32(t)
			} else {
				idx[k] = int32(len(m.Edges))
				m.Edges = append(m.Edges, k)
				m.EdgeTris = append(m.EdgeTris, [2]int32{int32(t), nilIdx})
			}
		}
	}
	for _, u := range m.used {
		if u {
			m.nUsed++
		}
	}
}

// NumTris returns the triangle count of the snapshot.
func (m *Mesh) NumTris() int { return len(m.Tris) }

// NumEdges returns the unique edge count.
func (m *Mesh) NumEdges() int { return len(m.Edges) }

// NumVertsTotal returns the global vertex-ID space size (field array length).
func (m *Mesh) NumVertsTotal() int { return len(m.VX) }

// NumVertsUsed returns how many vertices this snapshot actually references.
func (m *Mesh) NumVertsUsed() int { return m.nUsed }

// VertUsed reports whether global vertex v appears in this snapshot.
func (m *Mesh) VertUsed(v int32) bool { return m.used[v] }

// Centroid returns the centroid of triangle t.
func (m *Mesh) Centroid(t int) (x, y float64) {
	v := m.Tris[t]
	x = (m.VX[v[0]] + m.VX[v[1]] + m.VX[v[2]]) / 3
	y = (m.VY[v[0]] + m.VY[v[1]] + m.VY[v[2]]) / 3
	return
}

// Area returns the (positive) area of triangle t.
func (m *Mesh) Area(t int) float64 {
	v := m.Tris[t]
	ax, ay := m.VX[v[0]], m.VY[v[0]]
	bx, by := m.VX[v[1]], m.VY[v[1]]
	cx, cy := m.VX[v[2]], m.VY[v[2]]
	a := 0.5 * ((bx-ax)*(cy-ay) - (cx-ax)*(by-ay))
	if a < 0 {
		a = -a
	}
	return a
}

// TotalArea sums all triangle areas; for a conforming mesh over the unit
// square it must equal 1 (up to roundoff) regardless of adaptation.
func (m *Mesh) TotalArea() float64 {
	s := 0.0
	for t := range m.Tris {
		s += m.Area(t)
	}
	return s
}
