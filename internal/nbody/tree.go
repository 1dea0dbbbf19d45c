package nbody

import "math"

// LeafCap is the maximum bodies per quadtree leaf.
const LeafCap = 8

// Cell is one quadtree node. Internal cells have Child[q] >= 0 for occupied
// quadrants; leaves carry a slice of body indices. CX/CY/CM are the centre
// of mass and total mass, computed bottom-up in deterministic order.
type Cell struct {
	X0, Y0, Size float64
	Child        [4]int32 // -1 if empty/none
	Bodies       []int32  // leaf payload (nil for internal cells)
	CX, CY, CM   float64
	NBody        int
}

// Tree is a quadtree over a body set.
type Tree struct {
	Cells []Cell
	Root  int32
}

// NumCells returns the cell count.
func (t *Tree) NumCells() int { return len(t.Cells) }

// Build constructs the quadtree for the bodies, computing centres of mass
// bottom-up. Construction is deterministic: bodies are inserted in index
// order and children are created in quadrant order.
func Build(b *Bodies) *Tree {
	x0, y0, size := b.Bounds()
	t := &Tree{}
	idx := make([]int32, b.N())
	for i := range idx {
		idx[i] = int32(i)
	}
	t.Root = t.build(b, idx, x0, y0, size, 0)
	return t
}

const maxDepth = 48

func (t *Tree) build(b *Bodies, idx []int32, x0, y0, size float64, depth int) int32 {
	c := int32(len(t.Cells))
	t.Cells = append(t.Cells, Cell{
		X0: x0, Y0: y0, Size: size,
		Child: [4]int32{-1, -1, -1, -1},
		NBody: len(idx),
	})
	if len(idx) <= LeafCap || depth >= maxDepth {
		// Leaf: copy the body list (idx aliases a scratch slice).
		lb := make([]int32, len(idx))
		copy(lb, idx)
		t.Cells[c].Bodies = lb
		t.leafCOM(b, c)
		return c
	}
	half := size / 2
	mx, my := x0+half, y0+half
	// Partition into quadrants (stable: preserves index order).
	var quads [4][]int32
	for _, i := range idx {
		q := 0
		if b.X[i] >= mx {
			q |= 1
		}
		if b.Y[i] >= my {
			q |= 2
		}
		quads[q] = append(quads[q], i)
	}
	for q := 0; q < 4; q++ {
		if len(quads[q]) == 0 {
			continue
		}
		qx := x0
		if q&1 != 0 {
			qx = mx
		}
		qy := y0
		if q&2 != 0 {
			qy = my
		}
		child := t.build(b, quads[q], qx, qy, half, depth+1)
		t.Cells[c].Child[q] = child
	}
	// Centre of mass from children, in quadrant order.
	var sx, sy, sm float64
	for q := 0; q < 4; q++ {
		ch := t.Cells[c].Child[q]
		if ch < 0 {
			continue
		}
		cc := &t.Cells[ch]
		sx += cc.CX * cc.CM
		sy += cc.CY * cc.CM
		sm += cc.CM
	}
	if sm > 0 {
		t.Cells[c].CX = sx / sm
		t.Cells[c].CY = sy / sm
		t.Cells[c].CM = sm
	}
	return c
}

func (t *Tree) leafCOM(b *Bodies, c int32) {
	var sx, sy, sm float64
	for _, i := range t.Cells[c].Bodies {
		sx += b.X[i] * b.M[i]
		sy += b.Y[i] * b.M[i]
		sm += b.M[i]
	}
	if sm > 0 {
		t.Cells[c].CX = sx / sm
		t.Cells[c].CY = sy / sm
		t.Cells[c].CM = sm
	}
}

// BodyReader supplies body positions/masses during traversal; CellReader
// supplies cell centres of mass. The indirection lets each programming
// model charge its own memory-system costs while computing identical
// arithmetic.
type (
	BodyReader func(i int32) (x, y, m float64)
	CellReader func(c int32) (x, y, m float64)
)

// Accel computes the Barnes-Hut acceleration on the body at (bx, by) with
// index self, using opening angle theta. It returns the acceleration and
// the number of interactions evaluated (the load measure that drives
// cost-zones partitioning). Traversal order is deterministic.
func (t *Tree) Accel(self int32, bx, by, theta float64, readBody BodyReader, readCell CellReader) (ax, ay float64, inter int) {
	type frame = int32
	stack := make([]frame, 0, 64)
	stack = append(stack, t.Root)
	tt := theta * theta // hoisted; (theta*theta)*d2 is the original association
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cell := &t.Cells[c]
		if cell.NBody == 0 {
			continue
		}
		if cell.Bodies != nil {
			for _, j := range cell.Bodies {
				if j == self {
					continue
				}
				jx, jy, jm := readBody(j)
				dx, dy := jx-bx, jy-by
				d2 := dx*dx + dy*dy + Soft2
				inv := 1 / (d2 * math.Sqrt(d2))
				ax += G * jm * dx * inv
				ay += G * jm * dy * inv
				inter++
			}
			continue
		}
		cx, cy, cm := readCell(c)
		dx, dy := cx-bx, cy-by
		d2 := dx*dx + dy*dy
		if cell.Size*cell.Size < tt*d2 {
			d2 += Soft2
			inv := 1 / (d2 * math.Sqrt(d2))
			ax += G * cm * dx * inv
			ay += G * cm * dy * inv
			inter++
			continue
		}
		// Push children in reverse quadrant order so they pop in order.
		for q := 3; q >= 0; q-- {
			if ch := cell.Child[q]; ch >= 0 {
				stack = append(stack, ch)
			}
		}
	}
	return ax, ay, inter
}

// DirectAccel returns the reference forces in direct readers (no costing).
func (t *Tree) DirectAccel(b *Bodies, self int32, theta float64) (ax, ay float64, inter int) {
	return t.Accel(self, b.X[self], b.Y[self], theta,
		func(i int32) (float64, float64, float64) { return b.X[i], b.Y[i], b.M[i] },
		func(c int32) (float64, float64, float64) {
			cc := &t.Cells[c]
			return cc.CX, cc.CY, cc.CM
		})
}
