package adaptmesh

// The one-sided (SHMEM) implementation of the adaptive-mesh application.
// The decomposition is the same as MP's, but all communication is
// initiator-driven: partial sums and migrated values are *put* into
// symmetric staging buffers at precomputed offsets, updated ghost values are
// pushed with indexed puts directly into the owners' neighbours' field
// blocks, and barriers provide completion. No receive-side code exists at
// all — the structural difference the programming-effort table captures.

import (
	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/numa"
	"o2k/internal/shm"
	"o2k/internal/sim"
	"o2k/internal/solver"
)

// shmLayout precomputes the symmetric staging-buffer offsets for one cycle.
type shmLayout struct {
	offIn  [][]int // offIn[q][p]: start of region p→q in q's contrib block
	offMig [][]int // offMig[dst][src]: start of region src→dst in dst's migration block
	inLen  int     // contrib block length (max over PEs)
	migLen int     // migration block length (max over PEs)
}

func buildShmLayout(pl *CyclePlan, nprocs int) *shmLayout {
	lay := &shmLayout{
		offIn:  make([][]int, nprocs),
		offMig: make([][]int, nprocs),
	}
	for q := 0; q < nprocs; q++ {
		lay.offIn[q] = make([]int, nprocs)
		lay.offMig[q] = make([]int, nprocs)
		off := 0
		for p := 0; p < nprocs; p++ {
			lay.offIn[q][p] = off
			off += len(pl.Dec.Border[p][q])
		}
		if off > lay.inLen {
			lay.inLen = off
		}
		off = 0
		for src := 0; src < nprocs; src++ {
			lay.offMig[q][src] = off
			off += len(pl.MoveSend[src][q])
		}
		if off > lay.migLen {
			lay.migLen = off
		}
	}
	if lay.inLen == 0 {
		lay.inLen = 1
	}
	if lay.migLen == 0 {
		lay.migLen = 1
	}
	return lay
}

func runSHMEM(mach *machine.Machine, w Workload, plans []*CyclePlan, g *sim.Group) core.Metrics {
	nprocs := mach.Procs()
	sp := numa.NewSpace(mach)
	world := shm.NewWorld(mach, sp)

	var uOld *shm.Sym[float64]
	var auxOld []*shm.Sym[float64]
	var checksum float64
	nf := 1 + w.AuxFields
	for ci, pl := range plans {
		lay := buildShmLayout(pl, nprocs)
		uNew := shm.AllocWorld[float64](world, pl.NV)
		acc := shm.AllocWorld[float64](world, pl.NV)
		auxNew := make([]*shm.Sym[float64], w.AuxFields)
		for k := range auxNew {
			auxNew[k] = shm.AllocWorld[float64](world, pl.NV)
		}
		contrib := shm.AllocWorld[float64](world, lay.inLen)
		mig := shm.AllocWorld[float64](world, nf*lay.migLen)
		var prev *CyclePlan
		if ci > 0 {
			prev = plans[ci-1]
		}
		prevU, prevAux := uOld, auxOld
		g.Run(func(p *sim.Proc) {
			cs := shmCycle(world.PE(p), mach, w, pl, prev, lay, prevU, prevAux, uNew, auxNew, acc, contrib, mig)
			if p.ID() == 0 {
				checksum = cs
			}
		})
		// All puts into these blocks completed at the cycle's final barrier:
		// recycle the staging blocks, the accumulator, and the previous
		// cycle's field arrays (last read by this cycle's remap).
		shm.Free(acc)
		shm.Free(contrib)
		shm.Free(mig)
		if prevU != nil {
			shm.Free(prevU)
			for _, ax := range prevAux {
				shm.Free(ax)
			}
		}
		uOld = uNew
		auxOld = auxNew
	}
	return finishMetrics(core.SHMEM, g, sp, plans, 2+w.AuxFields, checksum)
}

func shmCycle(pe *shm.PE, mach *machine.Machine, w Workload, pl, prev *CyclePlan,
	lay *shmLayout, uOld *shm.Sym[float64], auxOld []*shm.Sym[float64],
	u *shm.Sym[float64], aux []*shm.Sym[float64], acc, contrib, mig *shm.Sym[float64]) float64 {

	me := pe.ID()
	p := pe.P
	dec := pl.Dec
	uL := u.Local(pe)
	accL := acc.Local(pe)

	// --- mark
	chargeMark(p, mach, pl)

	// --- refine: each PE applies its share of the structural changes; the
	// records are shared by a one-sided collect (cheaper than MP's
	// allgather, but still explicit — unlike CC-SAS).
	ph := p.SetPhase(sim.PhaseRefine)
	shm.Collect(pe, refineRecords(pl, pe.Size()))
	p.SetPhase(ph)
	chargeOps(p, mach, sim.PhaseRefine, solver.ApplyOps*((pl.Changes+pe.Size()-1)/pe.Size()))

	// --- partition
	chargePartition(p, mach, pl)

	// --- remap: puts into the migration staging block; completion by
	// barrier; then interpolate new vertices.
	ph = p.SetPhase(sim.PhaseRemap)
	nf := 1 + w.AuxFields
	auxL := make([]*numa.Array[float64], len(aux))
	for k := range aux {
		auxL[k] = aux[k].Local(pe)
	}
	fields := make([]*numa.Array[float64], 0, nf)
	fields = append(append(fields, uL), auxL...)
	var scratch []float64
	buf := func(n int) []float64 {
		if cap(scratch) < n {
			scratch = make([]float64, n)
		}
		return scratch[:n]
	}
	if prev == nil {
		seedFields(p, w, pl, fields, dec.OwnedVerts[me])
		chargeOps(p, mach, sim.PhaseRemap, solver.InterpOps*nf*len(dec.OwnedVerts[me]))
		pe.Barrier()
	} else {
		oldFields := make([]*numa.Array[float64], 0, nf)
		oldFields = append(oldFields, uOld.Local(pe))
		for k := range auxOld {
			oldFields = append(oldFields, auxOld[k].Local(pe))
		}
		numa.CopyFields(p, fields, oldFields, pl.LocalKeep[me])
		for _, dst := range pl.MoveTo[me] {
			lst := pl.MoveSend[me][dst]
			if len(lst) == 0 {
				continue
			}
			vals := buf(nf * len(lst))
			numa.GatherFields(p, oldFields, lst, vals)
			shm.Put(pe, mig, dst, nf*lay.offMig[dst][me], vals)
		}
		pe.Barrier()
		migL := mig.Local(pe)
		for _, src := range pl.MoveFrom[me] {
			lst := pl.MoveSend[src][me]
			numa.UnpackFields(p, migL, nf*lay.offMig[me][src], fields, lst)
		}
		interpolate(p, pl, fields, pl.InterpOwned[me])
		chargeOps(p, mach, sim.PhaseRemap, solver.InterpOps*nf*len(pl.InterpOwned[me]))
	}
	p.SetPhase(ph)

	// --- solve
	p.SetPhase(sim.PhaseCompute)
	shmGhostPush(pe, pl, u, uL, &scratch)
	pe.Barrier()
	for it := 0; it < w.SolveIters; it++ {
		accL.FillIdx(p, pl.Clear[me], 0)
		edgeFlux(p, mach, uL, accL, pl.EdgeA[me], pl.EdgeB[me])
		// Push partial sums into the owners' contribution blocks.
		phc := p.SetPhase(sim.PhaseComm)
		for _, q := range dec.Touches[me] {
			lst := dec.Border[me][q]
			if len(lst) == 0 {
				continue
			}
			vals := buf(len(lst))
			accL.GatherIdx(p, lst, vals)
			shm.Put(pe, contrib, q, lay.offIn[q][me], vals)
		}
		p.SetPhase(phc)
		pe.Barrier()
		contribL := contrib.Local(pe)
		for _, q := range dec.TouchedBy[me] {
			numa.AddGather(p, accL, dec.Border[q][me], contribL, lay.offIn[me][q])
		}
		vertexUpdate(p, mach, uL, accL, dec.OwnedVerts[me], pl.Deg)
		shmGhostPush(pe, pl, u, uL, &scratch)
		pe.Barrier()
	}

	return shm.Allreduce1(pe, ownedSum(p, fields, dec.OwnedVerts[me]), shm.OpSum)
}

// shmGhostPush writes my owned vertices' updated values straight into each
// neighbour's field block with indexed puts; the following barrier makes
// them visible. scratch is the caller's staging buffer (PutIdx copies out
// before returning, so reuse across targets is safe).
func shmGhostPush(pe *shm.PE, pl *CyclePlan, u *shm.Sym[float64], uL *numa.Array[float64], scratch *[]float64) {
	me := pe.ID()
	p := pe.P
	dec := pl.Dec
	defer p.SetPhase(p.SetPhase(sim.PhaseComm))
	for _, q := range dec.TouchedBy[me] {
		lst := dec.Border[q][me]
		if len(lst) == 0 {
			continue
		}
		if cap(*scratch) < len(lst) {
			*scratch = make([]float64, len(lst))
		}
		vals := (*scratch)[:len(lst)]
		uL.GatherIdx(p, lst, vals)
		shm.PutIdx(pe, u, q, lst, vals)
	}
}
