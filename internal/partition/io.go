package partition

import (
	"fmt"

	"o2k/internal/mesh"
	"o2k/internal/planio"
)

// Decomp serialization. Every field of a Decomp is deterministically derived
// by NewDecomp from (mesh, triangle owners, P) — see the ownership discipline
// in decomp.go — so the codec stores only the triangle-owner vector, read
// back off OwnedTris, and rebuilds the rest on decode. That keeps plan-cache entries small and means a decoded
// decomposition is reflect.DeepEqual to the encoded one by construction.
//
//	o2kdecomp 1 <P> <nt>
//	<owner> ...            (nt tokens)

// AppendTo writes the decomposition's compact form.
func (d *Decomp) AppendTo(pw *planio.Writer) {
	owner := make([]int32, d.M.NumTris())
	for p, tris := range d.OwnedTris {
		for _, t := range tris {
			owner[t] = int32(p)
		}
	}
	pw.Word("o2kdecomp")
	pw.Int(1)
	pw.Int(d.P)
	pw.Int(len(owner))
	pw.End()
	pw.I32s(owner)
	pw.End()
}

// DecodeDecompFrom reads a decomposition written by AppendTo and rebuilds it
// over snapshot m. The owner vector is validated (length matches the mesh,
// owners in [0, P)) before NewDecomp runs, so corrupt payloads decode to an
// error instead of panicking.
func DecodeDecompFrom(s *planio.Scanner, m *mesh.Mesh) (*Decomp, error) {
	s.Expect("o2kdecomp")
	if v := s.Int(); s.Err() == nil && v != 1 {
		return nil, fmt.Errorf("partition: unsupported decomp version %d", v)
	}
	p := s.IntRange(1, 1<<20)
	nt := s.Int()
	if err := s.Err(); err != nil {
		return nil, err
	}
	if nt != m.NumTris() {
		return nil, fmt.Errorf("partition: decomp has %d owners for a %d-triangle mesh", nt, m.NumTris())
	}
	owner := make([]int32, nt)
	s.I32s(owner, 0, p-1)
	if err := s.Err(); err != nil {
		return nil, err
	}
	return NewDecomp(m, owner, p), nil
}
