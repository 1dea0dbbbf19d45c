package adaptmesh

// The cache-coherent shared-address-space implementation of the adaptive-
// mesh application. The field lives in one shared array placed first-touch;
// there is no migration code and no ghost code at all — processors read
// remote values through the memory system and pay coherence misses instead.
// Partial sums still flow through per-pair regions of a shared contribution
// buffer (the standard CC-SAS idiom for deterministic owner accumulation).

import (
	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/numa"
	"o2k/internal/sas"
	"o2k/internal/sim"
	"o2k/internal/solver"
)

// sasLayout assigns each ordered (writer, owner) pair a contiguous region of
// the shared contribution buffer, pages homed on the writer.
type sasLayout struct {
	off   [][]int // off[p][q]: start of region p→q
	total int
}

func buildSasLayout(pl *CyclePlan, nprocs int) *sasLayout {
	lay := &sasLayout{off: make([][]int, nprocs)}
	for p := 0; p < nprocs; p++ {
		lay.off[p] = make([]int, nprocs)
		for q := 0; q < nprocs; q++ {
			lay.off[p][q] = lay.total
			lay.total += len(pl.Dec.Border[p][q])
		}
	}
	if lay.total == 0 {
		lay.total = 1
	}
	return lay
}

// writerOf returns the writer of contribution-buffer element e under lay.
func (lay *sasLayout) writerOf(e, nprocs int) int {
	for p := nprocs - 1; p >= 0; p-- {
		if e >= lay.off[p][0] {
			return p
		}
	}
	return 0
}

func runSAS(mach *machine.Machine, w Workload, plans []*CyclePlan, g *sim.Group) core.Metrics {
	nprocs := mach.Procs()
	sp := numa.NewSpace(mach)
	world := sas.NewWorld(mach, sp)

	// One shared field for the whole run, sized for the final vertex count,
	// pages placed where each vertex's first owner lives (first-touch).
	maxNV := MaxNV(plans)
	u := sas.NewArray[float64](world, maxNV)
	first := FirstOwner(plans)
	u.PlaceByElem(func(e int) int {
		if e < len(first) && first[e] >= 0 {
			return int(first[e])
		}
		return 0
	})
	// Auxiliary state: shared like the solved field, placed first-touch.
	aux := make([]*numa.Array[float64], w.AuxFields)
	for k := range aux {
		aux[k] = sas.NewArray[float64](world, maxNV)
		aux[k].PlaceByElem(func(e int) int {
			if e < len(first) && first[e] >= 0 {
				return int(first[e])
			}
			return 0
		})
	}
	// Private accumulators, allocated once.
	acc := make([]*numa.Array[float64], nprocs)
	for q := 0; q < nprocs; q++ {
		acc[q] = numa.NewPrivate[float64](sp, q, maxNV)
	}

	var checksum float64
	for ci, pl := range plans {
		lay := buildSasLayout(pl, nprocs)
		contrib := sas.NewArray[float64](world, lay.total)
		contrib.PlaceByElem(func(e int) int { return lay.writerOf(e, nprocs) })
		var prev *CyclePlan
		if ci > 0 {
			prev = plans[ci-1]
		}
		var migPenalty sim.Time
		if w.SasPageMigrate && ci > 0 {
			// OS page migration: re-home the shared field to the new owners
			// and charge the per-page move cost (spread over the procs, as
			// the kernel migrates pages in parallel).
			owner := func(e int) int {
				if o := pl.Dec.VertOwner[min(e, pl.NV-1)]; o >= 0 {
					return int(o)
				}
				if e < len(first) && first[e] >= 0 {
					return int(first[e])
				}
				return 0
			}
			moved := u.PlaceByElem(owner)
			for _, ax := range aux {
				moved += ax.PlaceByElem(owner)
			}
			migPenalty = sim.Time(moved) * mach.Cfg.PageMigrateNS / sim.Time(nprocs)
		}
		g.Run(func(p *sim.Proc) {
			if migPenalty > 0 {
				prevPh := p.SetPhase(sim.PhaseRemap)
				p.Advance(migPenalty)
				p.SetPhase(prevPh)
			}
			cs := sasCycle(world.Ctx(p), mach, w, pl, prev, lay, u, aux, contrib, acc[p.ID()])
			if p.ID() == 0 {
				checksum = cs
			}
		})
		// The contribution buffer dies with the cycle; its write-sets were
		// merged at the cycle's final barrier, so its host backing can be
		// recycled into the next cycle's (larger) buffer.
		numa.Release(contrib)
	}
	return finishMetrics(core.SAS, g, sp, plans, 2+w.AuxFields, checksum)
}

func sasCycle(c *sas.Ctx, mach *machine.Machine, w Workload, pl, prev *CyclePlan,
	lay *sasLayout, u *numa.Array[float64], aux []*numa.Array[float64],
	contrib, acc *numa.Array[float64]) float64 {

	me := c.ID()
	p := c.P
	dec := pl.Dec

	// --- mark
	chargeMark(p, mach, pl)

	// --- refine: processors append their share of new elements directly
	// into the shared mesh arrays; an exclusive scan hands out index ranges
	// and a barrier publishes the structure. No replicated apply, no
	// gather — the structural work is 1/P of the MP/SHMEM versions'.
	myChanges := (pl.Changes + c.Size() - 1) / c.Size()
	ph := p.SetPhase(sim.PhaseRefine)
	sas.Exscan(c, myChanges)
	p.SetPhase(ph)
	chargeOps(p, mach, sim.PhaseRefine, solver.ApplyOps*myChanges)
	c.Barrier()

	// --- partition
	chargePartition(p, mach, pl)

	// --- remap: nothing moves. New vertices are interpolated in place by
	// their owners, reading parent values straight out of the shared field.
	nf := 1 + w.AuxFields
	ph = p.SetPhase(sim.PhaseRemap)
	fields := make([]*numa.Array[float64], 0, nf)
	fields = append(append(fields, u), aux...)
	if prev == nil {
		seedFields(p, w, pl, fields, dec.OwnedVerts[me])
		chargeOps(p, mach, sim.PhaseRemap, solver.InterpOps*nf*len(dec.OwnedVerts[me]))
	} else {
		// Nothing migrates: old values (solved and auxiliary) are already in
		// the shared arrays; only the new vertices need interpolation.
		interpolate(p, pl, fields, pl.InterpOwned[me])
		chargeOps(p, mach, sim.PhaseRemap, solver.InterpOps*nf*len(pl.InterpOwned[me]))
	}
	p.SetPhase(ph)
	c.Barrier()

	// --- solve
	p.SetPhase(sim.PhaseCompute)
	for it := 0; it < w.SolveIters; it++ {
		acc.FillIdx(p, pl.Clear[me], 0)
		edgeFlux(p, mach, u, acc, pl.EdgeA[me], pl.EdgeB[me])
		// Publish partial sums for foreign-owned vertices.
		for _, q := range dec.Touches[me] {
			numa.PackIdx(p, contrib, lay.off[me][q], acc, dec.Border[me][q])
		}
		c.Barrier()
		for _, q := range dec.TouchedBy[me] {
			numa.AddGather(p, acc, dec.Border[q][me], contrib, lay.off[q][me])
		}
		vertexUpdate(p, mach, u, acc, dec.OwnedVerts[me], pl.Deg)
		c.Barrier()
	}

	return sas.Allreduce1(c, ownedSum(p, fields, dec.OwnedVerts[me]), sas.OpSum)
}
