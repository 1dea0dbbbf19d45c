package adaptmesh

// The hybrid (MP+SAS) implementation of the adaptive-mesh application — the
// extension model beyond the paper's three: one MP process per node board,
// with the node's processors cooperating through shared memory. The
// decomposition is built at *node* granularity, so inter-node messages are
// fewer and larger than pure MP's, and intra-node work splits between the
// node's processors with cheap local barriers. The cost is node-level
// serialization: only the node leader communicates, so partners idle during
// exchange phases — the classic hybrid trade-off.
//
// Numerics: the node's two processors accumulate edge partial sums in
// separate private accumulators that the leader combines in lane order, so
// results are deterministic run-to-run but associate differently from the
// pure models' (validated against the sequential reference within
// floating-point tolerance rather than bitwise).

import (
	"o2k/internal/apps"
	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/mp"
	"o2k/internal/numa"
	"o2k/internal/sim"
	"o2k/internal/solver"
)

// RunHybrid executes the workload under the hybrid MP+SAS model on mach
// (plans are built at node granularity).
func RunHybrid(mach *machine.Machine, w Workload) core.Metrics {
	return RunHybridWithPlans(mach, w, BuildPlans(w, mach.Nodes()))
}

// RunHybridWithPlans is RunHybrid with precomputed node-granularity plans.
func RunHybridWithPlans(mach *machine.Machine, w Workload, plans []*CyclePlan) core.Metrics {
	met, _ := runHybrid(mach, w, plans, false)
	return met
}

// TraceHybridWithPlans executes the hybrid model like RunHybridWithPlans but
// with phase-timeline tracing enabled, returning the processor group for
// sim.RenderTimeline.
func TraceHybridWithPlans(mach *machine.Machine, w Workload, plans []*CyclePlan) *sim.Group {
	_, g := runHybrid(mach, w, plans, true)
	return g
}

func runHybrid(mach *machine.Machine, w Workload, plans []*CyclePlan, trace bool) (core.Metrics, *sim.Group) {
	nprocs := mach.Procs()
	nnodes := mach.Nodes()
	if plans[0].Dec.P != nnodes {
		panic("adaptmesh: hybrid plans must be built for mach.Nodes() parts")
	}
	g := apps.NewGroup(mach, trace)
	sp := numa.NewSpace(mach)
	// The MP layer spans node leaders: give it a machine whose "processors"
	// are the nodes themselves, preserving the inter-node hop geometry.
	mpCfg := mach.Cfg
	mpCfg.Procs = nnodes
	mpCfg.ProcsPerNode = 1
	world := mp.NewWorld(machine.MustNew(mpCfg))

	// Intra-node barriers (cheap: same board).
	nodeOf := func(pid int) int { return mach.Node(pid) }
	nodeSize := make([]int, nnodes)
	for pid := 0; pid < nprocs; pid++ {
		nodeSize[nodeOf(pid)]++
	}
	nodeBar := make([]*sim.Barrier, nnodes)
	for n := range nodeBar {
		nodeBar[n] = sim.NewBarrier(nodeSize[n], func(int) sim.Time {
			return mach.Cfg.SasBarrierBase
		})
	}

	var uOld []*numa.Array[float64]
	var auxOld [][]*numa.Array[float64]
	var checksum float64
	for ci, pl := range plans {
		uNode := make([]*numa.Array[float64], nnodes)
		auxNode := make([][]*numa.Array[float64], nnodes)
		accLane := make([]*numa.Array[float64], nprocs)
		for n := 0; n < nnodes; n++ {
			uNode[n] = numa.NewPrivate[float64](sp, n*mach.Cfg.ProcsPerNode, pl.NV)
			auxNode[n] = make([]*numa.Array[float64], w.AuxFields)
			for k := range auxNode[n] {
				auxNode[n][k] = numa.NewPrivate[float64](sp, n*mach.Cfg.ProcsPerNode, pl.NV)
			}
		}
		for q := 0; q < nprocs; q++ {
			accLane[q] = numa.NewPrivate[float64](sp, q, pl.NV)
		}
		var prev *CyclePlan
		if ci > 0 {
			prev = plans[ci-1]
		}
		g.Run(func(p *sim.Proc) {
			node := nodeOf(p.ID())
			cs := hybridCycle(p, mach, world, w, pl, prev, node, p.ID()%mach.Cfg.ProcsPerNode,
				nodeSize[node], nodeBar[node], uOld, auxOld, uNode, auxNode, accLane)
			if p.ID() == 0 {
				checksum = cs
			}
		})
		for q := 0; q < nprocs; q++ {
			numa.Release(accLane[q])
		}
		if uOld != nil {
			for n := 0; n < nnodes; n++ {
				numa.Release(uOld[n])
				for _, ax := range auxOld[n] {
					numa.Release(ax)
				}
			}
		}
		uOld = uNode
		auxOld = auxNode
	}
	return finishMetrics(core.Hybrid, g, sp, plans, 2+w.AuxFields, checksum), g
}

// lane returns this lane's slice of a node-level work list.
func laneSlice(list []int32, lane, nodeP int) []int32 {
	lo := lane * len(list) / nodeP
	hi := (lane + 1) * len(list) / nodeP
	return list[lo:hi]
}

func hybridCycle(p *sim.Proc, mach *machine.Machine, world *mp.World, w Workload,
	pl, prev *CyclePlan, node, lane, nodeP int, bar *sim.Barrier,
	uOldArr []*numa.Array[float64], auxOldArr [][]*numa.Array[float64],
	uNodeArr []*numa.Array[float64], auxNodeArr [][]*numa.Array[float64],
	accLane []*numa.Array[float64]) float64 {

	dec := pl.Dec
	u := uNodeArr[node]
	aux := auxNodeArr[node]
	nf := 1 + w.AuxFields
	acc := accLane[p.ID()]
	leader := lane == 0
	var r *mp.Rank
	if leader {
		r = world.RankAs(p, node)
	}

	// --- mark: the node's triangles split across its lanes.
	chargeOps(p, mach, sim.PhaseMark, solver.MarkOps*(pl.MarkWork[node]/nodeP+1))

	// --- refine: leader allgathers the change records; every lane applies a
	// share of the node's slice.
	ph := p.SetPhase(sim.PhaseRefine)
	if leader {
		mp.Allgatherv(r, refineRecords(pl, world.Size()))
	}
	p.SetPhase(ph)
	chargeOps(p, mach, sim.PhaseRefine,
		solver.ApplyOps*((pl.Changes+world.Size()*nodeP-1)/(world.Size()*nodeP)))
	bar.Wait(p)

	// --- partition: parallel share across all processors plus the serial
	// floor (same as the pure models).
	nt := pl.M.NumTris()
	ne := pl.M.NumEdges()
	levels := mach.LogStages(dec.P)
	if levels < 1 {
		levels = 1
	}
	chargeOps(p, mach, sim.PhasePartition,
		(solver.PartOps*nt*levels+8*(nt+ne))/(dec.P*nodeP)+2*nt)

	// --- remap: leader migrates between nodes; lanes share interpolation.
	ph = p.SetPhase(sim.PhaseRemap)
	fields := make([]*numa.Array[float64], 0, nf)
	fields = append(append(fields, u), aux...)
	var scratch []float64
	buf := func(n int) []float64 {
		if cap(scratch) < n {
			scratch = make([]float64, n)
		}
		return scratch[:n]
	}
	if prev == nil {
		seedFields(p, w, pl, fields, laneSlice(dec.OwnedVerts[node], lane, nodeP))
		chargeOps(p, mach, sim.PhaseRemap, solver.InterpOps*nf*len(dec.OwnedVerts[node])/nodeP)
	} else {
		oldFields := make([]*numa.Array[float64], 0, nf)
		oldFields = append(append(oldFields, uOldArr[node]), auxOldArr[node]...)
		numa.CopyFields(p, fields, oldFields, laneSlice(pl.LocalKeep[node], lane, nodeP))
		if leader {
			for _, dst := range pl.MoveTo[node] {
				lst := pl.MoveSend[node][dst]
				vals := buf(nf * len(lst))
				numa.GatherFields(p, oldFields, lst, vals)
				mp.Send(r, dst, tagMig, vals)
			}
			for _, src := range pl.MoveFrom[node] {
				lst := pl.MoveSend[src][node]
				numa.ScatterFields(p, fields, lst, mp.Recv[float64](r, src, tagMig))
			}
		}
		bar.Wait(p) // migrated values visible node-wide before interpolation
		interpolate(p, pl, fields, laneSlice(pl.InterpOwned[node], lane, nodeP))
		chargeOps(p, mach, sim.PhaseRemap, solver.InterpOps*nf*len(pl.InterpOwned[node])/nodeP)
	}
	p.SetPhase(ph)
	bar.Wait(p)

	// --- solve
	p.SetPhase(sim.PhaseCompute)
	if leader {
		mpGhostExchange(r, pl, u, &scratch)
	}
	bar.Wait(p)
	leaderAcc := accLane[p.ID()-lane] // lane 0's accumulator of this node
	ea := laneSlice(pl.EdgeA[node], lane, nodeP)
	eb := laneSlice(pl.EdgeB[node], lane, nodeP)
	for it := 0; it < w.SolveIters; it++ {
		acc.FillIdx(p, pl.Clear[node], 0)
		edgeFlux(p, mach, u, acc, ea, eb)
		bar.Wait(p)
		if leader {
			// Combine the lanes' partials into the leader's accumulator, in
			// lane order, then run the node-level exchange.
			for ln := 1; ln < nodeP; ln++ {
				cacc := acc.Cursor(p)
				coth := accLane[p.ID()+ln].Cursor(p)
				for _, v := range pl.Clear[node] {
					i := int(v)
					cacc.Store(i, cacc.Load(i)+coth.Load(i))
				}
				cacc.Flush()
				coth.Flush()
			}
			phc := p.SetPhase(sim.PhaseComm)
			for _, q := range dec.Touches[node] {
				lst := dec.Border[node][q]
				vals := buf(len(lst))
				acc.GatherIdx(p, lst, vals)
				mp.Send(r, q, tagPartial, vals)
			}
			for _, q := range dec.TouchedBy[node] {
				lst := dec.Border[q][node]
				numa.AddIdx(p, acc, lst, mp.Recv[float64](r, q, tagPartial))
			}
			p.SetPhase(phc)
		}
		bar.Wait(p)
		vertexUpdate(p, mach, u, leaderAcc, laneSlice(dec.OwnedVerts[node], lane, nodeP), pl.Deg)
		bar.Wait(p)
		if leader {
			mpGhostExchange(r, pl, u, &scratch)
		}
		bar.Wait(p)
	}

	// Checksum: node sums by the leader, combined across nodes in rank order.
	var cs float64
	if leader {
		cs = mp.Allreduce1(r, ownedSum(p, fields, dec.OwnedVerts[node]), mp.OpSum)
	}
	bar.Wait(p)
	return cs
}
