package partition

import (
	"slices"

	"o2k/internal/mesh"
)

// Decomp turns a per-triangle partition of a mesh snapshot into the
// ownership relations and communication lists the three programming-model
// codes share. The decomposition discipline (identical in every model, so
// numerical results match bitwise):
//
//   - Triangles are partitioned (input).
//   - Each edge is computed by the owner of its first adjacent triangle.
//   - Each vertex is owned by the owner of the lowest-indexed triangle that
//     contains it.
//   - For every vertex a processor's edges touch but it does not own, the
//     processor sends one partial sum (contribution exchange) and needs the
//     owner's updated value back (ghost exchange). Both use the same sorted
//     border-vertex lists.
//
// All lists are sorted by (peer, vertex ID), so message contents and
// floating-point accumulation order are deterministic.
type Decomp struct {
	M *mesh.Mesh
	P int

	VertOwner []int32 // per global vertex ID; -1 if unused in this snapshot

	OwnedTris  [][]int32 // per proc, ascending triangle IDs
	OwnedEdges [][]int32 // per proc, ascending edge IDs
	OwnedVerts [][]int32 // per proc, ascending vertex IDs

	// Border[p][q]: vertices owned by q that p's edges touch (p != q),
	// ascending. Contributions flow p→q over these lists; updated values
	// flow q→p over the same lists.
	Border [][][]int32

	// Touches[p] lists, ascending, the q with a non-empty Border[p][q]: the
	// owners p sends partial sums to and receives ghost values from.
	// TouchedBy[p] lists, ascending, the q with a non-empty Border[q][p]: the
	// processors p receives partial sums from and sends ghost values to. An
	// exchange loop ranges over these instead of all P processors.
	Touches, TouchedBy [][]int
}

// NewDecomp builds the decomposition for snapshot m under the given triangle
// partition with nparts parts.
func NewDecomp(m *mesh.Mesh, triOwner []int32, nparts int) *Decomp {
	if len(triOwner) != m.NumTris() {
		panic("partition: triOwner length != triangle count")
	}
	d := &Decomp{M: m, P: nparts}

	d.OwnedTris = make([][]int32, nparts)
	for t, p := range triOwner {
		d.OwnedTris[p] = append(d.OwnedTris[p], int32(t))
	}

	// Edge ownership.
	d.OwnedEdges = make([][]int32, nparts)
	for e := range m.NumEdges() {
		own := triOwner[m.EdgeTris[e][0]]
		d.OwnedEdges[own] = append(d.OwnedEdges[own], int32(e))
	}

	// Vertex ownership: lowest-indexed containing triangle wins.
	nv := m.NumVertsTotal()
	d.VertOwner = make([]int32, nv)
	for v := range d.VertOwner {
		d.VertOwner[v] = -1
	}
	for t := 0; t < m.NumTris(); t++ {
		for _, v := range m.Tris[t] {
			if d.VertOwner[v] == -1 {
				d.VertOwner[v] = triOwner[t]
			}
		}
	}
	d.OwnedVerts = make([][]int32, nparts)
	for v := int32(0); v < int32(nv); v++ {
		if o := d.VertOwner[v]; o >= 0 {
			d.OwnedVerts[o] = append(d.OwnedVerts[o], v)
		}
	}

	// Border lists: vertices my edges touch that someone else owns. Walking
	// each processor's edges in turn (ascending, as the global edge order
	// visits them) lets one stamp per vertex, 1+p, mark what p has listed.
	seen := make([]int32, nv)
	d.Border = make([][][]int32, nparts)
	for p := 0; p < nparts; p++ {
		d.Border[p] = make([][]int32, nparts)
		stamp := int32(1 + p)
		for _, e := range d.OwnedEdges[p] {
			for _, v := range d.M.Edges[e] {
				if q := d.VertOwner[v]; q != int32(p) && seen[v] != stamp {
					seen[v] = stamp
					d.Border[p][q] = append(d.Border[p][q], v)
				}
			}
		}
	}
	// Edge iteration is in ascending edge order, and Edges store (min,max)
	// pairs, but border vertices must be ascending per (p,q) list: sort. The
	// same pass records the non-empty lists as peer lists; ascending p and q
	// keep both ascending.
	d.Touches = make([][]int, nparts)
	d.TouchedBy = make([][]int, nparts)
	for p := 0; p < nparts; p++ {
		for q := 0; q < nparts; q++ {
			if len(d.Border[p][q]) == 0 {
				continue
			}
			sortInt32s(d.Border[p][q])
			d.Touches[p] = append(d.Touches[p], q)
			d.TouchedBy[q] = append(d.TouchedBy[q], p)
		}
	}
	return d
}

// SweepLists derives, per processor q, the index lists of an edge sweep over
// q's owned edges: clear[q], the accumulator entries q zeroes each sweep (the
// endpoints of its owned edges and its owned vertices, ascending), and
// edgeA[q]/edgeB[q], the endpoints of its owned edges, index-aligned with
// OwnedEdges[q] — the structure-of-arrays view that spares the inner loop
// the double indirection through M.Edges.
func (d *Decomp) SweepLists() (clear, edgeA, edgeB [][]int32) {
	clear = make([][]int32, d.P)
	edgeA = make([][]int32, d.P)
	edgeB = make([][]int32, d.P)
	mark := make([]int32, len(d.VertOwner))
	for i := range mark {
		mark[i] = -1
	}
	for q := range d.P {
		ne := len(d.OwnedEdges[q])
		edgeA[q], edgeB[q] = make([]int32, 0, ne), make([]int32, 0, ne)
		for _, e := range d.OwnedEdges[q] {
			edgeA[q] = append(edgeA[q], d.M.Edges[e][0])
			edgeB[q] = append(edgeB[q], d.M.Edges[e][1])
			for _, v := range d.M.Edges[e] {
				if mark[v] != int32(q) {
					mark[v] = int32(q)
					clear[q] = append(clear[q], v)
				}
			}
		}
		for _, v := range d.OwnedVerts[q] {
			if mark[v] != int32(q) {
				mark[v] = int32(q)
				clear[q] = append(clear[q], v)
			}
		}
		slices.Sort(clear[q])
	}
	return clear, edgeA, edgeB
}

func sortInt32s(s []int32) {
	// Insertion sort is fine: border lists are short; avoid sort.Slice
	// closure allocation in this hot path.
	for i := 1; i < len(s); i++ {
		x := s[i]
		j := i - 1
		for j >= 0 && s[j] > x {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = x
	}
}

// DataMemory returns the per-model "model-visible" field memory in bytes for
// nfields vertex fields of 8 bytes each, used by the memory-footprint table:
//
//   - MP and SHMEM processes store their owned vertices plus ghost copies of
//     every border vertex (both directions), plus the send/recv buffers.
//   - CC-SAS stores each field exactly once, shared.
func (d *Decomp) DataMemory(nfields int) (mpBytes, shmBytes, sasBytes int) {
	const w = 8
	nv := 0
	for _, ov := range d.OwnedVerts {
		nv += len(ov)
	}
	ghosts := 0
	for p := range d.Border {
		for q := range d.Border[p] {
			ghosts += len(d.Border[p][q]) // p's copies of q-owned verts
			ghosts += len(d.Border[q][p]) // p's staging for inbound partials
		}
	}
	mpBytes = nfields * w * (nv + ghosts)
	// SHMEM needs the same ghost copies but stages transfers in the
	// symmetric heap without separate MPI buffers: count ghosts once.
	shmBytes = nfields * w * (nv + ghosts/2)
	sasBytes = nfields * w * nv
	return
}
