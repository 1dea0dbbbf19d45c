package adaptmesh

// The message-passing (MPI-style) implementation of the adaptive-mesh
// application. Every piece of data a process touches lives in its private
// memory; all sharing is explicit two-sided messaging:
//
//   - refine:   allgather of structural change records, replicated apply;
//   - remap:    point-to-point migration of field values to new owners;
//   - solve:    per-sweep exchange of partial sums to vertex owners and of
//               updated values back to ghost copies.

import (
	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/mp"
	"o2k/internal/numa"
	"o2k/internal/sim"
	"o2k/internal/solver"
)

const (
	tagMig     = 12
	tagPartial = 13
	tagGhost   = 14
)

func runMP(mach *machine.Machine, w Workload, plans []*CyclePlan, g *sim.Group) core.Metrics {
	nprocs := mach.Procs()
	world := mp.NewWorld(mach)
	sp := numa.NewSpace(mach)

	var uOld []*numa.Array[float64]
	var auxOld [][]*numa.Array[float64]
	var checksum float64
	for ci, pl := range plans {
		// Host-side allocation in rank order keeps addresses, and therefore
		// cache behaviour, deterministic.
		uNew := make([]*numa.Array[float64], nprocs)
		acc := make([]*numa.Array[float64], nprocs)
		auxNew := make([][]*numa.Array[float64], nprocs)
		for q := 0; q < nprocs; q++ {
			uNew[q] = numa.NewPrivate[float64](sp, q, pl.NV)
			acc[q] = numa.NewPrivate[float64](sp, q, pl.NV)
			auxNew[q] = make([]*numa.Array[float64], w.AuxFields)
			for k := range auxNew[q] {
				auxNew[q][k] = numa.NewPrivate[float64](sp, q, pl.NV)
			}
		}
		var prev *CyclePlan
		if ci > 0 {
			prev = plans[ci-1]
		}
		g.Run(func(p *sim.Proc) {
			cs := mpCycle(world.Rank(p), mach, w, pl, prev,
				uOld, auxOld, uNew[p.ID()], auxNew[p.ID()], acc[p.ID()])
			if p.ID() == 0 {
				checksum = cs
			}
		})
		// The previous cycle's field arrays were last read by this cycle's
		// remap; the accumulators die with the cycle. Recycle their host
		// backing so the next cycle's allocations reuse it.
		for q := 0; q < nprocs; q++ {
			numa.Release(acc[q])
			if uOld != nil {
				numa.Release(uOld[q])
				for _, ax := range auxOld[q] {
					numa.Release(ax)
				}
			}
		}
		uOld = uNew
		auxOld = auxNew
	}
	return finishMetrics(core.MP, g, sp, plans, 2+w.AuxFields, checksum)
}

func mpCycle(r *mp.Rank, mach *machine.Machine, w Workload, pl, prev *CyclePlan,
	uOldArr []*numa.Array[float64], auxOldArr [][]*numa.Array[float64],
	u *numa.Array[float64], aux []*numa.Array[float64], acc *numa.Array[float64]) float64 {

	me := r.ID()
	p := r.P
	dec := pl.Dec

	// --- mark: local error-indicator evaluation.
	chargeMark(p, mach, pl)

	// --- refine: each rank applies its share of the structural changes,
	// then the change records are allgathered so every rank can update the
	// halo portions of its mesh structure — the messaging is the MP price of
	// making adaptation globally visible.
	ph := p.SetPhase(sim.PhaseRefine)
	mp.Allgatherv(r, refineRecords(pl, r.Size()))
	p.SetPhase(ph)
	chargeOps(p, mach, sim.PhaseRefine, solver.ApplyOps*((pl.Changes+r.Size()-1)/r.Size()))

	// --- partition: replicated RCB (identical cost in every model).
	chargePartition(p, mach, pl)

	// --- remap: migrate old field values to new owners, then interpolate
	// the vertices created by this cycle's refinement.
	ph = p.SetPhase(sim.PhaseRemap)
	nf := 1 + w.AuxFields // values migrated per vertex
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
		lst := dec.OwnedVerts[me]
		vals := buf(nf * len(lst))
		for i, v := range lst {
			vals[nf*i] = w.initialField(pl.M.VX[v], pl.M.VY[v])
			for k := range aux {
				vals[nf*i+1+k] = auxInit(k, pl.M.VX[v], pl.M.VY[v])
			}
		}
		numa.ScatterFields(p, fields, lst, vals)
		chargeOps(p, mach, sim.PhaseRemap, solver.InterpOps*nf*len(lst))
	} else {
		oldFields := make([]*numa.Array[float64], 0, nf)
		oldFields = append(append(oldFields, uOldArr[me]), auxOldArr[me]...)
		numa.CopyFields(p, fields, oldFields, pl.LocalKeep[me])
		for dst := 0; dst < r.Size(); dst++ {
			lst := pl.MoveSend[me][dst]
			if len(lst) == 0 {
				continue
			}
			vals := buf(nf * len(lst))
			numa.GatherFields(p, oldFields, lst, vals)
			mp.Send(r, dst, tagMig, vals)
		}
		for src := 0; src < r.Size(); src++ {
			lst := pl.MoveSend[src][me]
			if len(lst) == 0 {
				continue
			}
			numa.ScatterFields(p, fields, lst, mp.Recv[float64](r, src, tagMig))
		}
		cu := u.Cursor(p)
		read := func(x int32) float64 { return cu.Load(int(x)) }
		for _, v := range pl.InterpOwned[me] {
			cu.Store(int(v), pl.InterpValue(v, read))
		}
		cu.Flush()
		for _, ax := range aux {
			cax := ax.Cursor(p)
			readAux := func(x int32) float64 { return cax.Load(int(x)) }
			for _, v := range pl.InterpOwned[me] {
				cax.Store(int(v), pl.InterpValue(v, readAux))
			}
			cax.Flush()
		}
		chargeOps(p, mach, sim.PhaseRemap, solver.InterpOps*nf*len(pl.InterpOwned[me]))
	}
	p.SetPhase(ph)

	// --- solve: edge-based sweeps with owner-accumulation exchanges.
	p.SetPhase(sim.PhaseCompute)
	mpGhostExchange(r, pl, u, &scratch)
	for it := 0; it < w.SolveIters; it++ {
		acc.FillIdx(p, pl.Clear[me], 0)
		edgeFlux(p, mach, u, acc, pl.EdgeA[me], pl.EdgeB[me])
		// Partial sums to vertex owners.
		phc := p.SetPhase(sim.PhaseComm)
		for q := 0; q < r.Size(); q++ {
			lst := dec.Border[me][q]
			if len(lst) == 0 {
				continue
			}
			vals := buf(len(lst))
			acc.GatherIdx(p, lst, vals)
			mp.Send(r, q, tagPartial, vals)
		}
		for q := 0; q < r.Size(); q++ {
			lst := dec.Border[q][me]
			if len(lst) == 0 {
				continue
			}
			numa.AddIdx(p, acc, lst, mp.Recv[float64](r, q, tagPartial))
		}
		p.SetPhase(phc)
		vertexUpdate(p, mach, u, acc, dec.OwnedVerts[me], pl.Deg)
		mpGhostExchange(r, pl, u, &scratch)
	}

	// Deterministic digest: per-rank owned sums (solved + auxiliary state)
	// combined in rank order.
	s := 0.0
	cu := u.Cursor(p)
	cax := make([]numa.Cursor[float64], len(aux))
	for k, ax := range aux {
		cax[k] = ax.Cursor(p)
	}
	for _, v := range dec.OwnedVerts[me] {
		s += cu.Load(int(v))
		for k := range cax {
			s += cax[k].Load(int(v))
		}
	}
	cu.Flush()
	for k := range cax {
		cax[k].Flush()
	}
	return mp.Allreduce1(r, s, mp.OpSum)
}

// mpGhostExchange sends each neighbour the updated values of the vertices I
// own that it touches, and refreshes my ghost copies from their owners.
// scratch is the caller's staging buffer (mp.Send copies, so it is free to
// reuse across destinations).
func mpGhostExchange(r *mp.Rank, pl *CyclePlan, u *numa.Array[float64], scratch *[]float64) {
	me := r.ID()
	p := r.P
	dec := pl.Dec
	defer p.SetPhase(p.SetPhase(sim.PhaseComm))
	for q := 0; q < r.Size(); q++ {
		lst := dec.Border[q][me] // q touches these; I own them
		if len(lst) == 0 {
			continue
		}
		if cap(*scratch) < len(lst) {
			*scratch = make([]float64, len(lst))
		}
		vals := (*scratch)[:len(lst)]
		u.GatherIdx(p, lst, vals)
		mp.Send(r, q, tagGhost, vals)
	}
	for q := 0; q < r.Size(); q++ {
		lst := dec.Border[me][q] // I touch these; q owns them
		if len(lst) == 0 {
			continue
		}
		u.ScatterIdx(p, lst, mp.Recv[float64](r, q, tagGhost))
	}
}
