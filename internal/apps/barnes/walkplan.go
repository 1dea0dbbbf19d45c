package barnes

import (
	"math"
	"sync"

	"o2k/internal/nbody"
)

// WalkPlan is the per-step force-walk oracle: the reference traversal's exact
// visit sequence plus the accelerations it produces. All three models walk
// the same tree over the same body positions in the same order — only the
// *memory charging* of the loads differs between them — so the traversal and
// the physics are computed once per structure step and every model (at every
// processor count) replays just the charges. See replayWalk.
//
// The trace is flat: Trace[Off[i]:Off[i+1]] lists body i's visits in stack
// order. An entry e >= 0 is a leaf-body interaction (loads of x[e], y[e],
// m[e]); an entry e < 0 is an internal-cell visit (loads of cells[3c..3c+2]
// for c = ^e), covering both opened and accepted cells — the walk reads a
// cell's centre of mass before deciding, so both charge.
//
// Built lazily on first use (the holder is shared across the plan sets every
// processor count derives from one structure) and never serialized: a warm
// structure rebuilds it from the captured positions and tree.
type WalkPlan struct {
	x, y, m []float64
	tree    *nbody.Tree
	theta   float64
	inter   int // the step's recorded interaction total: sizes the trace
	once    sync.Once

	AX, AY []float64 // per body, the step's reference accelerations
	Trace  []int32   // flattened visit sequences (see above)
	Off    []int32   // per body, Trace offsets; len = N+1
}

// newWalkPlan captures the inputs; the trace itself is built on first Ensure.
// inter is the step's recorded interaction total.
func newWalkPlan(x, y, m []float64, t *nbody.Tree, theta float64, inter int) *WalkPlan {
	return &WalkPlan{x: x, y: y, m: m, tree: t, theta: theta, inter: inter}
}

// Ensure builds the trace once and returns the receiver. Safe to call from
// concurrent simulated processors; the build is pure host work and charges
// nothing.
func (wp *WalkPlan) Ensure() *WalkPlan {
	wp.once.Do(wp.build)
	return wp
}

// build replays nbody.Accel's traversal for every body, recording the visit
// sequence and accumulating the accelerations with the identical arithmetic
// and association (walk_test.go checks both against the cursor walker
// value-for-value).
func (wp *WalkPlan) build() {
	t := wp.tree
	n := len(wp.x)
	wp.AX = make([]float64, n)
	wp.AY = make([]float64, n)
	wp.Off = make([]int32, n+1)
	// One entry per interaction plus one per opened cell; a quarter on top
	// covers the opened cells at the paper's theta, and append still grows.
	trace := make([]int32, 0, wp.inter+wp.inter/4)
	stack := make([]int32, 0, 64)
	tt := wp.theta * wp.theta
	for i := 0; i < n; i++ {
		bx, by := wp.x[i], wp.y[i]
		self := int32(i)
		var ax, ay float64
		stack = append(stack[:0], t.Root)
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
					trace = append(trace, j)
					dx, dy := wp.x[j]-bx, wp.y[j]-by
					d2 := dx*dx + dy*dy + nbody.Soft2
					inv := 1 / (d2 * math.Sqrt(d2))
					ax += nbody.G * wp.m[j] * dx * inv
					ay += nbody.G * wp.m[j] * dy * inv
				}
				continue
			}
			trace = append(trace, ^c)
			dx, dy := cell.CX-bx, cell.CY-by
			d2 := dx*dx + dy*dy
			if cell.Size*cell.Size < tt*d2 {
				d2 += nbody.Soft2
				inv := 1 / (d2 * math.Sqrt(d2))
				ax += nbody.G * cell.CM * dx * inv
				ay += nbody.G * cell.CM * dy * inv
				continue
			}
			// Push children in reverse quadrant order so they pop in order.
			for q := 3; q >= 0; q-- {
				if ch := cell.Child[q]; ch >= 0 {
					stack = append(stack, ch)
				}
			}
		}
		wp.AX[i], wp.AY[i] = ax, ay
		wp.Off[i+1] = int32(len(trace))
	}
	wp.Trace = trace
}
