package nbody

import (
	"fmt"

	"o2k/internal/planio"
)

// Quadtree serialization for the persistent plan cache. The tree is stored
// cell-for-cell (size, children, centre of mass, leaf payload), so a
// decoded tree is reflect.DeepEqual to the encoded one — including the
// leaf/internal distinction, which is Bodies being non-nil:
//
//	o2knbtree 1 <ncells> <root>
//	<Size> <c0> <c1> <c2> <c3> <NBody> <CX> <CY> <CM> <nb> [bodies]
//
// nb is -1 for internal cells (nil Bodies); leaves write their body count
// followed by the body indices. Decoding validates child and body indices,
// so a corrupt payload decodes to an error, never a panic.

// AppendTo writes the tree.
func (t *Tree) AppendTo(pw *planio.Writer) {
	pw.Word("o2knbtree")
	pw.Int(1)
	pw.Int(len(t.Cells))
	pw.Int(int(t.Root))
	pw.End()
	for i := range t.Cells {
		c := &t.Cells[i]
		pw.Float(c.Size)
		for _, ch := range c.Child {
			pw.Int(int(ch))
		}
		pw.Int(c.NBody)
		pw.Float(c.CX)
		pw.Float(c.CY)
		pw.Float(c.CM)
		if c.Bodies == nil {
			pw.Int(-1)
		} else {
			pw.Int(len(c.Bodies))
			pw.I32s(c.Bodies)
		}
		pw.End()
	}
}

// DecodeTreeFrom reads a tree written by AppendTo. maxBody bounds the valid
// body-index space (the simulation's body count).
func DecodeTreeFrom(s *planio.Scanner, maxBody int) (*Tree, error) {
	s.Expect("o2knbtree")
	if v := s.Int(); s.Err() == nil && v != 1 {
		return nil, fmt.Errorf("nbody: unsupported tree version %d", v)
	}
	n := s.IntRange(1, 1<<28)
	root := s.IntRange(0, n-1)
	if err := s.Err(); err != nil {
		return nil, err
	}
	t := &Tree{Cells: make([]Cell, n), Root: int32(root)}
	for i := 0; i < n; i++ {
		c := &t.Cells[i]
		c.Size = s.Float()
		for q := 0; q < 4; q++ {
			c.Child[q] = int32(s.IntRange(-1, n-1))
		}
		c.NBody = s.IntRange(0, maxBody)
		c.CX = s.Float()
		c.CY = s.Float()
		c.CM = s.Float()
		nb := s.IntRange(-1, maxBody)
		if nb >= 0 {
			c.Bodies = make([]int32, nb)
			s.I32s(c.Bodies, 0, maxBody-1)
		}
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	return t, nil
}
