package mesh

// Snapshot serialization: the line-oriented text format the persistent plan
// cache stores snapshots in.
//
//	o2kmesh 2
//	verts <nv>
//	<x> <y>                         (nv lines, all global IDs, holes included)
//	tris <m>
//	<a> <b> <c> <level> <green>
//
// The format preserves the *global* vertex-ID space: a snapshot's IDs must
// keep indexing the forest-wide field arrays (MidA/MidB parent chains,
// per-vertex degrees, solver fields), so holes — vertices the snapshot does
// not use — are kept in place, and a decoded snapshot is reflect.DeepEqual
// to the encoded one.
//
// Floats use shortest-round-trip formatting (bit-exact). Decoding is total:
// any malformed or out-of-range token returns an error, never panics — the
// cache layer treats a decode error as a corrupt entry and recomputes.

import (
	"fmt"

	"o2k/internal/planio"
)

// AppendGlobal appends the encoding of m to pw.
func (m *Mesh) AppendGlobal(pw *planio.Writer) {
	pw.Word("o2kmesh")
	pw.Int(2)
	pw.End()
	pw.Word("verts")
	pw.Int(len(m.VX))
	pw.End()
	AppendVerts(pw, m.VX, m.VY)
	pw.Word("tris")
	pw.Int(len(m.Tris))
	pw.End()
	m.AppendTris(pw)
}

// AppendVerts writes the coordinate table: one "<x> <y>" line per global ID.
func AppendVerts(pw *planio.Writer, vx, vy []float64) {
	for v := range vx {
		pw.Float(vx[v])
		pw.Float(vy[v])
		pw.End()
	}
}

// DecodeVerts reads an n-entry coordinate table written by AppendVerts.
func DecodeVerts(s *planio.Scanner, n int) (vx, vy []float64, err error) {
	vx = make([]float64, n)
	vy = make([]float64, n)
	for v := 0; v < n; v++ {
		vx[v] = s.Float()
		vy[v] = s.Float()
	}
	if err := s.Err(); err != nil {
		return nil, nil, err
	}
	return vx, vy, nil
}

// AppendTris writes the triangle table of m: "<a> <b> <c> <level> <green>"
// per triangle, with global vertex IDs.
func (m *Mesh) AppendTris(pw *planio.Writer) {
	for t, tv := range m.Tris {
		pw.Int(int(tv[0]))
		pw.Int(int(tv[1]))
		pw.Int(int(tv[2]))
		pw.Int(int(m.Level[t]))
		g := 0
		if m.Green[t] {
			g = 1
		}
		pw.Int(g)
		pw.End()
	}
}

// DecodeTris reads an nt-entry triangle table and assembles a snapshot over
// the given global coordinate arrays, rebuilding the edge structure. The
// coordinate slices are aliased, not copied — callers sharing one append-only
// coordinate arena across several snapshots pass prefixes of it.
func DecodeTris(s *planio.Scanner, nt int, vx, vy []float64) (m *Mesh, err error) {
	// buildEdges panics on non-manifold connectivity, which corrupt-but-in-
	// range triangle data can produce; decoding must degrade to an error.
	defer func() {
		if r := recover(); r != nil {
			m, err = nil, fmt.Errorf("mesh: corrupt triangle table: %v", r)
		}
	}()
	if nt <= 0 {
		return nil, fmt.Errorf("mesh: bad triangle count %d", nt)
	}
	nv := len(vx)
	m = &Mesh{
		VX:    vx,
		VY:    vy,
		Tris:  make([][3]int32, nt),
		Level: make([]int8, nt),
		Green: make([]bool, nt),
	}
	for t := 0; t < nt; t++ {
		m.Tris[t][0] = int32(s.IntRange(0, nv-1))
		m.Tris[t][1] = int32(s.IntRange(0, nv-1))
		m.Tris[t][2] = int32(s.IntRange(0, nv-1))
		m.Level[t] = int8(s.IntRange(-128, 127))
		m.Green[t] = s.IntRange(0, 1) != 0
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	m.buildEdges()
	return m, nil
}

// DecodeGlobal is the strict inverse of AppendGlobal over a whole payload:
// trailing bytes are an error.
func DecodeGlobal(data []byte) (*Mesh, error) {
	s := planio.NewScanner(data)
	s.Expect("o2kmesh")
	if v := s.Int(); s.Err() == nil && v != 2 {
		return nil, fmt.Errorf("mesh: unsupported version %d", v)
	}
	s.Expect("verts")
	nv := s.IntRange(1, 1<<30)
	if err := s.Err(); err != nil {
		return nil, err
	}
	vx, vy, err := DecodeVerts(s, nv)
	if err != nil {
		return nil, err
	}
	s.Expect("tris")
	nt := s.IntRange(1, 1<<30)
	if err := s.Err(); err != nil {
		return nil, err
	}
	m, err := DecodeTris(s, nt, vx, vy)
	if err != nil {
		return nil, err
	}
	s.Done()
	return m, s.Err()
}

// AppendTo writes the front's parameters — the plan-structure codecs embed
// the workload's front as a self-describing cross-check, so a cache entry
// that was somehow stored under the wrong key fails decoding instead of
// silently supplying plans for a different workload.
func (w MovingFront) AppendTo(pw *planio.Writer) {
	pw.Word("o2kfront")
	pw.Int(1)
	pw.Float(w.Radius)
	pw.Float(w.Band)
	pw.Int(w.MaxLevel)
	pw.Float(w.X0)
	pw.Float(w.Y0)
	pw.Float(w.DX)
	pw.Float(w.DY)
	pw.End()
}

// DecodeMovingFrontFrom reads a front written by AppendTo.
func DecodeMovingFrontFrom(s *planio.Scanner) (MovingFront, error) {
	var w MovingFront
	s.Expect("o2kfront")
	if v := s.Int(); s.Err() == nil && v != 1 {
		return w, fmt.Errorf("mesh: unsupported front version %d", v)
	}
	w.Radius = s.Float()
	w.Band = s.Float()
	w.MaxLevel = s.IntRange(0, 30)
	w.X0 = s.Float()
	w.Y0 = s.Float()
	w.DX = s.Float()
	w.DY = s.Float()
	return w, s.Err()
}
