package barnes

import (
	"sync"

	"o2k/internal/machine"
	"o2k/internal/nbody"
	"o2k/internal/numa"
)

// WalkPlan is the per-step force-walk oracle: the reference traversal's exact
// visit sequence plus the accelerations it produces. All three models walk
// the same tree over the same body positions in the same order — only the
// *memory charging* of the loads differs between them — so the traversal and
// the physics are computed once per structure step and every model (at every
// processor count) replays just the charges. See force.
//
// The loads are held as a line-symbol stream: syms[off[i]:off[i+1]] names the
// cache lines body i's force evaluation loads — its own x and y, then its
// visits in stack order: a leaf-body interaction loads x, y, m of the body; an
// internal-cell visit, opened or accepted alike (the walk reads a cell's
// centre of mass before deciding), loads the cell's three words. Symbols, and
// the entries they are compiled from, are defined in one place, numa's
// replay.go. They are compiled for lines of lineBytes, the line size of every
// machine preset; anywhere else a force phase walks the tree again for its
// entries (chargeBody).
//
// Built by the structure build, which takes the step's accelerations and
// interaction counts from it, or — a structure decoded from the disk tier
// never serializes it — on the first force phase (the holder is shared across
// the plan sets every processor count derives from one structure).
type WalkPlan struct {
	x, y, m []float64
	tree    *nbody.Tree
	theta   float64
	prev    *WalkPlan // the step before: its stream length sizes this one's
	once    sync.Once

	AX, AY    []float64 // per body, the step's reference accelerations
	syms      []uint16  // flattened visit sequences as line symbols (see above)
	off       []int32   // per body, syms offsets; len = N+1
	lineBytes int       // the line size syms is compiled for; 0 = no symbols
}

// Ensure builds the walk once and returns the receiver. Safe to call from
// concurrent simulated processors; the build is pure host work and charges
// nothing.
func (wp *WalkPlan) Ensure() *WalkPlan {
	wp.once.Do(func() { wp.build(nil) })
	return wp
}

// walk is nbody.Accel for body i with every load recorded: it appends the
// visits to entries (numa.ReplayLoads' encoding) and returns the acceleration
// and the interaction count.
func (wp *WalkPlan) walk(i int, entries []int32) ([]int32, float64, float64, int) {
	t := wp.tree
	ax, ay, inter := t.Accel(int32(i), wp.x[i], wp.y[i], wp.theta,
		func(j int32) (float64, float64, float64) {
			entries = append(entries, j)
			return wp.x[j], wp.y[j], wp.m[j]
		},
		func(c int32) (float64, float64, float64) {
			entries = append(entries, ^c)
			cell := &t.Cells[c]
			return cell.CX, cell.CY, cell.CM
		})
	return entries, ax, ay, inter
}

// build walks the tree for every body, keeping the accelerations, the loads
// as line symbols and, when inter is not nil, the interaction counts.
func (wp *WalkPlan) build(inter []int) {
	n := len(wp.x)
	wp.AX = make([]float64, n)
	wp.AY = make([]float64, n)
	wp.off = make([]int32, n+1)
	var syms []uint16
	if wp.prev != nil {
		// A step's bodies have barely moved since the last one: the five
		// Default streams are within 3 % of each other in length.
		hint := len(wp.prev.Ensure().syms)
		syms = make([]uint16, 0, hint+hint/32)
	}
	lineBytes := machine.Default(1).LineBytes
	var entries []int32
	for i := range n {
		var k int
		entries, wp.AX[i], wp.AY[i], k = wp.walk(i, entries[:0])
		if inter != nil {
			inter[i] = k
		}
		if lineBytes != 0 {
			var ok bool
			if syms, ok = numa.CompileLoads[float64](syms, lineBytes, i, entries); !ok {
				syms, lineBytes = nil, 0
			}
		}
		wp.off[i+1] = int32(len(syms))
	}
	wp.syms, wp.lineBytes = syms, lineBytes
}
