package adaptmesh

import (
	"slices"

	"o2k/internal/mesh"
	"o2k/internal/partition"
	"o2k/internal/solver"
)

// CyclePlan is the structural state of one adaptation cycle: the snapshot,
// its decomposition, and the (deterministic) migration and interpolation
// schedules every programming model executes against. Because the error
// indicator is geometric, the whole sequence of plans is computable up
// front and — crucially for the cross-model comparison — shared verbatim by
// all three implementations.
type CyclePlan struct {
	M   *mesh.Mesh
	Dec *partition.Decomp
	Deg []int32 // per global vertex ID, edge degree in this snapshot
	NV  int     // vertex-ID space size after this cycle's adaptation

	// MidA/MidB alias the forest's parent arrays (length NV).
	MidA, MidB []int32

	// PrevOwner[v] is v's owner in the previous cycle's decomposition, or -1
	// if v was not used then (nil in cycle 0).
	PrevOwner []int32

	// MoveSend[src][dst] lists vertex IDs (ascending) whose previous-cycle
	// values processor src must deliver to processor dst (src != dst): the
	// values dst needs to seed its owned vertices and to interpolate its new
	// ones.
	MoveSend [][][]int32

	// MoveTo[p] and MoveFrom[p] list, ascending, the q with a non-empty
	// MoveSend[p][q] and MoveSend[q][p]: the processors a migration loop
	// sends to and receives from.
	MoveTo, MoveFrom [][]int

	// LocalKeep[p] lists vertex IDs whose values stay on p across the cycle.
	LocalKeep [][]int32

	// InterpOwned[p] lists the new (previously unused) vertices p owns and
	// must interpolate, ascending.
	InterpOwned [][]int32

	// Clear[p] lists the vertices p must zero in its accumulator each sweep:
	// everything its edges touch plus everything it owns, ascending
	// (Decomp.SweepLists derives it with EdgeA and EdgeB).
	Clear [][]int32

	// EdgeA/EdgeB[p] are the endpoint vertex IDs of p's owned edges,
	// index-aligned with Dec.OwnedEdges[p]: the flux sweep's
	// structure-of-arrays view, which replaces the per-edge double
	// indirection through M.Edges in every model's inner loop. Host-side
	// layout only — the costed accesses are to the field arrays the
	// endpoints index.
	EdgeA, EdgeB [][]int32

	Moved float64 // weight the remap moved to other processors (PLUM's TotalV)

	// MarkWork[p] is the number of triangles p evaluates the error indicator
	// on (its share of the pre-adaptation mesh).
	MarkWork []int
	// Changes is the number of structural elements the refinement step
	// touches (children created/removed plus green closures).
	Changes int
}

// BuildPlans runs the structural side of the whole experiment: Cycles
// adaptations of the forest, each partitioned for nprocs processors, with
// migration/interpolation schedules chained cycle to cycle. It is the
// one-shot convenience over the two-stage BuildStructure/Plans split the
// plan cache uses (see structure.go): the adaptation sequence is computed
// once per workload and the per-processor-count partitioning is derived from
// it, with bit-identical results either way.
func BuildPlans(w Workload, nprocs int) []*CyclePlan {
	return BuildStructure(w).Plans(nprocs, w.NoRemap)
}

// Plans derives the cycle plans for nprocs processors from the adaptation
// structure: RCB over each cycle's centroids, the PLUM remap against the
// previous cycle's owners, then the shared derivation in planCycle.
func (st *Structure) Plans(nprocs int, noRemap bool) []*CyclePlan {
	plans := make([]*CyclePlan, 0, len(st.Cycles))
	var prev *CyclePlan
	for c, sc := range st.Cycles {
		m := sc.M
		nt := m.NumTris()
		xs := make([]float64, nt)
		ys := make([]float64, nt)
		wt := make([]float64, nt)
		for t := 0; t < nt; t++ {
			xs[t], ys[t] = m.Centroid(t)
			wt[t] = 1
		}
		part := partition.RCB(xs, ys, wt, nprocs)

		// PLUM remap: similarity between the new parts and the previous
		// owners.
		assign := partition.IdentityAssign(nprocs)
		moved := 0.0
		if prev != nil {
			oldOwner := make([]int32, nt)
			for t := 0; t < nt; t++ {
				oldOwner[t] = st.ancestorOwner(prev, m.Tris[t][0])
			}
			if noRemap {
				moved = partition.MovedWeight(oldOwner, part, wt, assign)
			} else {
				assign, moved = partition.Remap(oldOwner, part, wt, nprocs)
			}
		}
		triOwner := make([]int32, nt)
		for t := 0; t < nt; t++ {
			triOwner[t] = assign[part[t]]
		}
		p := st.planCycle(c, partition.NewDecomp(m, triOwner, nprocs), moved, nprocs, prev)
		plans = append(plans, p)
		prev = p
	}
	return plans
}

// planCycle derives one cycle's full plan from its decomposition and the
// weight its remap moved — everything downstream of the partitioning decision is
// deterministic in (structure, triangle owners), which is why the plan cache
// can store just the owner vector and replay this derivation on warm runs
// (the decomposition itself is rebuilt by the decoder, so it is taken here
// instead of recomputed).
func (st *Structure) planCycle(cycle int, dec *partition.Decomp, moved float64, nprocs int, prev *CyclePlan) *CyclePlan {
	sc := st.Cycles[cycle]
	m := sc.M
	nv := m.NumVertsTotal()
	p := &CyclePlan{
		M:     m,
		NV:    nv,
		MidA:  st.MidA[:nv],
		MidB:  st.MidB[:nv],
		Moved: moved,
	}
	p.Dec = dec
	p.Deg = solver.Degrees(m)

	if prev != nil {
		p.PrevOwner = prev.Dec.VertOwner
	}
	green := 0 // green closure triangles in the snapshot
	for _, g := range m.Green {
		if g {
			green++
		}
	}
	p.Changes = 4*sc.Stats.Refined + 4*sc.Stats.Coarsened + green
	p.MarkWork = make([]int, nprocs)
	for q := 0; q < nprocs; q++ {
		if prev != nil {
			p.MarkWork[q] = len(prev.Dec.OwnedTris[q])
		} else {
			p.MarkWork[q] = (st.BaseTris + nprocs - 1) / nprocs
		}
	}
	p.buildMigration(nprocs)
	p.Clear, p.EdgeA, p.EdgeB = dec.SweepLists()
	return p
}

// ancestorOwner walks v's parent chain until a vertex that was used in the
// previous cycle, returning its previous owner — the "where did this region
// live" proxy the remapper's similarity matrix needs.
func (st *Structure) ancestorOwner(prev *CyclePlan, v int32) int32 {
	for {
		if int(v) < len(prev.Dec.VertOwner) {
			if o := prev.Dec.VertOwner[v]; o >= 0 {
				return o
			}
		}
		a := st.MidA[v]
		if a < 0 {
			return 0 // base vertex never used: cannot happen, but stay total
		}
		v = a
	}
}

// prevOwnerOf returns v's previous-cycle owner or -1.
func (p *CyclePlan) prevOwnerOf(v int32) int32 {
	if p.PrevOwner == nil || int(v) >= len(p.PrevOwner) {
		return -1
	}
	return p.PrevOwner[v]
}

// expandLeaves appends to out the previously-used ancestors whose values
// are needed to interpolate v, in parent-recursion order.
func (p *CyclePlan) expandLeaves(v int32, out []int32) []int32 {
	if p.prevOwnerOf(v) >= 0 {
		return append(out, v)
	}
	a, b := p.MidA[v], p.MidB[v]
	if a < 0 {
		// A base vertex that was never used before: only possible in cycle 0,
		// which seeds analytically and never calls this.
		panic("adaptmesh: unexpanded base vertex")
	}
	out = p.expandLeaves(a, out)
	return p.expandLeaves(b, out)
}

// buildMigration fills MoveSend, MoveTo, MoveFrom, LocalKeep and
// InterpOwned.
func (p *CyclePlan) buildMigration(nprocs int) {
	p.MoveSend = make([][][]int32, nprocs)
	for s := range p.MoveSend {
		p.MoveSend[s] = make([][]int32, nprocs)
	}
	p.MoveTo = make([][]int, nprocs)
	p.MoveFrom = make([][]int, nprocs)
	p.LocalKeep = make([][]int32, nprocs)
	p.InterpOwned = make([][]int32, nprocs)
	if p.PrevOwner == nil {
		return // cycle 0: analytic initialization, nothing to migrate
	}
	// sent[vid] is the last dst that scheduled vid; the dst loop ascends, so
	// a stamp array replaces a (dst, vid) set without any clearing.
	sent := make([]int32, p.NV)
	for i := range sent {
		sent[i] = -1
	}
	var leaves []int32
	for dst := 0; dst < nprocs; dst++ {
		d32 := int32(dst)
		for _, v := range p.Dec.OwnedVerts[dst] {
			if src := p.prevOwnerOf(v); src >= 0 {
				if sent[v] != d32 {
					sent[v] = d32
					if int(src) == dst {
						p.LocalKeep[dst] = append(p.LocalKeep[dst], v)
					} else {
						p.MoveSend[src][dst] = append(p.MoveSend[src][dst], v)
					}
				}
				continue
			}
			p.InterpOwned[dst] = append(p.InterpOwned[dst], v)
			leaves = p.expandLeaves(v, leaves[:0])
			for _, lv := range leaves {
				if sent[lv] == d32 {
					continue
				}
				sent[lv] = d32
				src := p.prevOwnerOf(lv)
				if int(src) == dst {
					p.LocalKeep[dst] = append(p.LocalKeep[dst], lv)
				} else {
					p.MoveSend[src][dst] = append(p.MoveSend[src][dst], lv)
				}
			}
		}
	}
	// Ascending order everywhere: message contents and local copies must be
	// deterministic and identical across models.
	for s := 0; s < nprocs; s++ {
		slices.Sort(p.LocalKeep[s])
		for d := 0; d < nprocs; d++ {
			if len(p.MoveSend[s][d]) == 0 {
				continue
			}
			slices.Sort(p.MoveSend[s][d])
			p.MoveTo[s] = append(p.MoveTo[s], d)
			p.MoveFrom[d] = append(p.MoveFrom[d], s)
		}
		// OwnedVerts is ascending already, so InterpOwned is too.
	}
}

// InterpValue computes the field value of (possibly new) vertex v from the
// values of previously-used vertices, via the same recursion in every model:
// a previously-used vertex reads its (migrated) value; a new vertex is the
// average of its parents. read must return the previously-used vertex's
// value; the recursion order and arithmetic are fixed, so results are
// bit-identical across models.
func (p *CyclePlan) InterpValue(v int32, read func(int32) float64) float64 {
	if p.prevOwnerOf(v) >= 0 {
		return read(v)
	}
	return 0.5 * (p.InterpValue(p.MidA[v], read) + p.InterpValue(p.MidB[v], read))
}

// MaxNV returns the final vertex-ID space size over a plan sequence.
func MaxNV(plans []*CyclePlan) int {
	m := 0
	for _, p := range plans {
		if p.NV > m {
			m = p.NV
		}
	}
	return m
}

// FirstOwner returns, per vertex ID, the owner in the first cycle where the
// vertex is used (-1 if never) — the deterministic stand-in for first-touch
// page placement of the CC-SAS shared field.
func FirstOwner(plans []*CyclePlan) []int32 {
	out := make([]int32, MaxNV(plans))
	for i := range out {
		out[i] = -1
	}
	for _, p := range plans {
		for v := 0; v < p.NV; v++ {
			if out[v] == -1 && p.Dec.VertOwner[v] >= 0 {
				out[v] = p.Dec.VertOwner[v]
			}
		}
	}
	return out
}
