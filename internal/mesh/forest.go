// Package mesh implements the adaptive unstructured-mesh substrate: a 2-D
// triangular mesh over the unit square that repeatedly refines and coarsens
// to track a moving solution feature, in the style of the Biswas/Oliker
// adaptive-mesh line of work the paper's application comes from.
//
// The design is hierarchical red/green refinement:
//
//   - A fixed base mesh (a triangulated n×n grid) is the root layer.
//   - Refinement is "red": a triangle splits into four similar children via
//     its edge midpoints. The refinement forest persists across adaptation
//     cycles, so coarsening is exact de-refinement.
//   - Midpoint vertices are registered per geometric edge and reused, so
//     vertex IDs are stable and monotonically growing; field arrays indexed
//     by vertex ID survive adaptation, with new entries interpolated.
//   - A balance invariant (neighbouring leaves differ by at most one level)
//     is enforced by extra refinement passes, so any leaf edge carries at
//     most one hanging vertex.
//   - Snapshot extraction closes the leaves into a conforming mesh by
//     emitting temporary "green" triangles around hanging vertices; greens
//     are never refined — they are regenerated from the forest every cycle.
//
// All operations are deterministic: loops run in index order and new vertex
// IDs depend only on the refinement history, never on map iteration order.
package mesh

import "fmt"

// Vert is a vertex index; Tri indexes the forest triangle arena.
const nilIdx = int32(-1)

// ftri is one triangle of the refinement forest (internal or leaf).
type ftri struct {
	v      [3]int32 // corner vertices
	child  [4]int32 // red children, or nilIdx if leaf
	parent int32
	level  int8
	dead   bool // tombstoned by coarsening
}

func (t *ftri) isLeaf() bool { return t.child[0] == nilIdx && !t.dead }

// Forest is the persistent adaptive-mesh hierarchy.
type Forest struct {
	VX, VY []float64 // vertex coordinates, indexed by global vertex ID
	tris   []ftri
	nBase  int
	edgMid map[[2]int32]int32 // canonical edge -> midpoint vertex ID
	MaxLvl int

	// MidA/MidB record each vertex's parent edge endpoints (-1, -1 for the
	// base-mesh vertices). Parents always have smaller IDs, so recursive
	// expansion of a midpoint into original vertices terminates. The
	// applications use this to interpolate field values for new vertices
	// identically in every programming model.
	MidA, MidB []int32

	// scratch reused across passes
	cornerUse []bool
}

// NewUnitSquare builds the base mesh: an n×n grid over [0,1]² with each cell
// split into two triangles (2n² base triangles), and allows refinement down
// to maxLevel additional levels.
func NewUnitSquare(n, maxLevel int) *Forest {
	if n < 1 {
		panic("mesh: grid dimension must be >= 1")
	}
	if maxLevel < 0 || maxLevel > 30 {
		panic(fmt.Sprintf("mesh: maxLevel %d out of range", maxLevel))
	}
	f := &Forest{edgMid: make(map[[2]int32]int32), MaxLvl: maxLevel}
	nv := (n + 1) * (n + 1)
	f.VX = make([]float64, 0, nv)
	f.VY = make([]float64, 0, nv)
	for j := 0; j <= n; j++ {
		for i := 0; i <= n; i++ {
			f.VX = append(f.VX, float64(i)/float64(n))
			f.VY = append(f.VY, float64(j)/float64(n))
			f.MidA = append(f.MidA, nilIdx)
			f.MidB = append(f.MidB, nilIdx)
		}
	}
	vid := func(i, j int) int32 { return int32(j*(n+1) + i) }
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			a, b := vid(i, j), vid(i+1, j)
			c, d := vid(i+1, j+1), vid(i, j+1)
			// Alternate the diagonal for isotropy.
			if (i+j)%2 == 0 {
				f.addBase(a, b, c)
				f.addBase(a, c, d)
			} else {
				f.addBase(a, b, d)
				f.addBase(b, c, d)
			}
		}
	}
	f.nBase = len(f.tris)
	return f
}

func (f *Forest) addBase(a, b, c int32) {
	f.tris = append(f.tris, ftri{
		v:      [3]int32{a, b, c},
		child:  [4]int32{nilIdx, nilIdx, nilIdx, nilIdx},
		parent: nilIdx,
	})
}

// BaseTris returns the number of base-mesh triangles.
func (f *Forest) BaseTris() int { return f.nBase }

// edgeKey canonicalizes an edge as (min, max).
func edgeKey(a, b int32) [2]int32 {
	if a > b {
		a, b = b, a
	}
	return [2]int32{a, b}
}

// midpoint returns the midpoint vertex of edge (a,b), creating it on first
// use. Creation order is deterministic (callers loop in index order).
func (f *Forest) midpoint(a, b int32) int32 {
	k := edgeKey(a, b)
	if m, ok := f.edgMid[k]; ok {
		return m
	}
	m := int32(len(f.VX))
	f.VX = append(f.VX, 0.5*(f.VX[a]+f.VX[b]))
	f.VY = append(f.VY, 0.5*(f.VY[a]+f.VY[b]))
	f.MidA = append(f.MidA, k[0])
	f.MidB = append(f.MidB, k[1])
	f.edgMid[k] = m
	return m
}

// refine red-splits leaf t into four children.
func (f *Forest) refine(t int32) {
	tr := &f.tris[t]
	v0, v1, v2 := tr.v[0], tr.v[1], tr.v[2]
	m01 := f.midpoint(v0, v1)
	m12 := f.midpoint(v1, v2)
	m20 := f.midpoint(v2, v0)
	lvl := tr.level + 1
	base := int32(len(f.tris))
	kids := [4][3]int32{
		{v0, m01, m20},
		{m01, v1, m12},
		{m20, m12, v2},
		{m01, m12, m20},
	}
	for i, k := range kids {
		f.tris = append(f.tris, ftri{
			v:      k,
			child:  [4]int32{nilIdx, nilIdx, nilIdx, nilIdx},
			parent: t,
			level:  lvl,
		})
		f.tris[t].child[i] = base + int32(i)
	}
}

// coarsen removes t's children (which must all be leaves).
func (f *Forest) coarsen(t int32) {
	tr := &f.tris[t]
	for i, c := range tr.child {
		if c != nilIdx {
			f.tris[c].dead = true
			tr.child[i] = nilIdx
		}
	}
}

// Centroid returns the centroid of forest triangle t.
func (f *Forest) centroid(t int32) (x, y float64) {
	v := f.tris[t].v
	x = (f.VX[v[0]] + f.VX[v[1]] + f.VX[v[2]]) / 3
	y = (f.VY[v[0]] + f.VY[v[1]] + f.VY[v[2]]) / 3
	return
}

// Indicator maps a location (triangle centroid) to the desired refinement
// level there. It must be (approximately) 1-Lipschitz in units of base-cell
// size for economical grading; the balance passes enforce conformity in any
// case.
type Indicator func(x, y float64) int

// AdaptStats summarizes one adaptation cycle.
type AdaptStats struct {
	Refined   int // red splits performed
	Coarsened int // red splits undone
	Passes    int // refinement/balance passes until fixpoint
}

// Adapt drives the forest toward the indicator's desired level everywhere:
// first coarsening where the indicator wants less depth, then refining and
// rebalancing until no leaf violates the desired level or the one-level
// neighbour balance. It returns the cycle's statistics.
func (f *Forest) Adapt(ind Indicator) AdaptStats {
	var st AdaptStats

	// Coarsening passes, deepest first: undo red splits whose four children
	// are leaves and all want a shallower level — unless a neighbouring leaf
	// is refined deeper than the children, in which case coarsening would
	// violate the one-level balance and the refinement pass would just redo
	// the split (wasted churn).
	for {
		changed := false
		f.rebuildCornerUse()
		for t := int32(0); t < int32(len(f.tris)); t++ {
			tr := &f.tris[t]
			if tr.dead || tr.child[0] == nilIdx {
				continue
			}
			ok := true
			for _, c := range tr.child {
				ct := &f.tris[c]
				if !ct.isLeaf() {
					ok = false
					break
				}
				cx, cy := f.centroid(c)
				if ind(cx, cy) >= int(ct.level) {
					ok = false
					break
				}
			}
			if ok && f.coarsenWouldUnbalance(tr) {
				ok = false
			}
			if ok {
				f.coarsen(t)
				st.Coarsened++
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Refinement to desired level, then balance: a leaf must refine if any
	// of its edges carries a midpoint that is itself split further by a
	// deeper neighbour (two hanging vertices on one edge).
	for {
		st.Passes++
		changed := false
		for t := int32(0); t < int32(len(f.tris)); t++ {
			tr := &f.tris[t]
			if !tr.isLeaf() || int(tr.level) >= f.MaxLvl {
				continue
			}
			cx, cy := f.centroid(t)
			if ind(cx, cy) > int(tr.level) {
				f.refine(t)
				st.Refined++
				changed = true
			}
		}
		f.rebuildCornerUse()
		for t := int32(0); t < int32(len(f.tris)); t++ {
			tr := &f.tris[t]
			if !tr.isLeaf() || int(tr.level) >= f.MaxLvl {
				continue
			}
			if f.edgeOverSplit(tr) {
				f.refine(t)
				st.Refined++
				changed = true
			}
		}
		if !changed {
			break
		}
		if st.Passes > f.MaxLvl+64 {
			panic("mesh: balance did not converge")
		}
	}
	return st
}

// rebuildCornerUse recomputes which vertices are corners of current leaves.
func (f *Forest) rebuildCornerUse() {
	if cap(f.cornerUse) < len(f.VX) {
		f.cornerUse = make([]bool, len(f.VX))
	} else {
		f.cornerUse = f.cornerUse[:len(f.VX)]
		clear(f.cornerUse)
	}
	for t := range f.tris {
		tr := &f.tris[t]
		if tr.isLeaf() {
			f.cornerUse[tr.v[0]] = true
			f.cornerUse[tr.v[1]] = true
			f.cornerUse[tr.v[2]] = true
		}
	}
}

// hangingMid returns the in-use midpoint of edge (a,b), or nilIdx.
// f.cornerUse may lag behind refinements made in the current pass; vertices
// created since the last rebuild are treated as not-in-use, and the Adapt
// fixpoint loop re-examines them on the next pass.
func (f *Forest) hangingMid(a, b int32) int32 {
	if m, ok := f.edgMid[edgeKey(a, b)]; ok && int(m) < len(f.cornerUse) && f.cornerUse[m] {
		return m
	}
	return nilIdx
}

// coarsenWouldUnbalance reports whether turning tr back into a leaf would
// leave one of its edges with two levels of hanging vertices: each edge of
// tr is split at a midpoint (tr was red-refined); if a sub-edge of that
// midpoint is itself split and in use, a deeper neighbour abuts tr, so tr's
// children must stay. f.cornerUse must be current.
func (f *Forest) coarsenWouldUnbalance(tr *ftri) bool {
	for i := 0; i < 3; i++ {
		a, b := tr.v[i], tr.v[(i+1)%3]
		m, ok := f.edgMid[edgeKey(a, b)]
		if !ok {
			continue
		}
		if f.hangingMid(a, m) != nilIdx || f.hangingMid(m, b) != nilIdx {
			return true
		}
	}
	return false
}

// edgeOverSplit reports whether any edge of leaf tr carries two levels of
// hanging vertices — the balance violation that forces a refinement.
func (f *Forest) edgeOverSplit(tr *ftri) bool {
	for i := 0; i < 3; i++ {
		a, b := tr.v[i], tr.v[(i+1)%3]
		m := f.hangingMid(a, b)
		if m == nilIdx {
			continue
		}
		if f.hangingMid(a, m) != nilIdx || f.hangingMid(m, b) != nilIdx {
			return true
		}
	}
	return false
}
