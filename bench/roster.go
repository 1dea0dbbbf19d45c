package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"o2k/internal/apps/adaptmesh"
	"o2k/internal/apps/barnes"
	"o2k/internal/apps/cg"
	"o2k/internal/apps/stencil"
	"o2k/internal/core"
	"o2k/internal/experiments"
	"o2k/internal/machine"
	"o2k/internal/mesh"
	"o2k/internal/planio"
	"o2k/internal/runner/diskcache"
	"o2k/internal/sim"
)

// The roster is the traced, in-process walk through the cold path of one
// cell at a time: structure -> plans(P) -> machine -> run(model) -> encode ->
// disk put/get -> decode, each call a span, one span tree per cell. It runs
// the full workloads at the small, middle and large gang of the paper's
// sweep; the P = 512 and P = 1024 legs price the regime scale_cold lives in.
var rosterProcs = []int{1, 8, 64}

func modelSlug(m core.Model) string {
	switch m {
	case core.MP:
		return "mp"
	case core.SHMEM:
		return "shmem"
	}
	return "sas"
}

// rosterOut carries what later kernels reuse and what the count metrics and
// the checksum check need.
type rosterOut struct {
	meshSt    *adaptmesh.Structure
	meshPlans map[int][]*adaptmesh.CyclePlan
	nbodySt   *barnes.Structure
	cgPlan    map[int]*cg.Plan
	sample    core.Metrics            // one real Metrics value for the codec kernels
	counters  map[string]sim.Counters // summed per "app/model"
	problems  []string                // checksum disagreements across models
	cells     int
	runNS     map[string]time.Duration // host time per "app/model" (paper roster only)
}

func accesses(c sim.Counters) float64 {
	return float64(c.CacheHits + c.LocalMisses + c.RemoteMisses)
}

// roster executes the cells under tr (nil = spans off). cache may be nil, in
// which case the disk spans are skipped (the overhead comparison runs that
// way on both sides).
func roster(tr *tracer, o experiments.Opts, procs []int, cache *diskcache.Cache) *rosterOut {
	out := &rosterOut{
		meshPlans: map[int][]*adaptmesh.CyclePlan{},
		cgPlan:    map[int]*cg.Plan{},
		counters:  map[string]sim.Counters{},
		runNS:     map[string]time.Duration{},
	}
	// cell runs one (app, model, P) cell's tail — run, codec, disk — as the
	// children of a span named after the cell.
	cell := func(app string, model core.Model, p int, run func(m *machine.Machine) core.Metrics) core.Metrics {
		id := fmt.Sprintf("%s/%s/%d", app, modelSlug(model), p)
		var met core.Metrics
		tr.do("cell", id, func() {
			var mach *machine.Machine
			tr.do("machine.New", id, func() { mach = machine.MustNew(machine.Default(p)) })
			d := tr.do(app+".run."+modelSlug(model), id, func() { met = run(mach) })
			key := app + "/" + modelSlug(model)
			out.runNS[key] += d
			c := out.counters[key]
			c.Add(&met.Counters)
			out.counters[key] = c
			var enc []byte
			tr.do("core.EncodeMetrics", id, func() { enc, _ = core.EncodeMetrics(met) })
			if cache != nil {
				k := core.CellKey("bench/roster", id)
				tr.do("diskcache.Put", id, func() { cache.Put(k, enc) })
				tr.do("diskcache.Get", id, func() { enc, _ = cache.Get(k) })
			}
			tr.do("core.DecodeMetrics", id, func() { core.DecodeMetrics(enc) })
		})
		out.cells++
		return met
	}
	// sameChecksum is the roster's correctness check: the three models of one
	// (app, P) must agree on the result digest.
	sameChecksum := func(app string, p int, res [3]core.Metrics) {
		for _, m := range res[1:] {
			if math.Float64bits(m.Checksum) != math.Float64bits(res[0].Checksum) {
				out.problems = append(out.problems, fmt.Sprintf("%s P=%d: checksum differs across models", app, p))
				return
			}
		}
	}
	models := core.AllModels()

	tr.do("adaptmesh.BuildStructure", "mesh", func() { out.meshSt = adaptmesh.BuildStructure(o.MeshW) })
	for _, p := range procs {
		var plans []*adaptmesh.CyclePlan
		tr.do("adaptmesh.Plans", fmt.Sprintf("mesh/%d", p), func() { plans = out.meshSt.Plans(p, false) })
		out.meshPlans[p] = plans
		var res [3]core.Metrics
		for i, m := range models {
			res[i] = cell("mesh", m, p, func(mach *machine.Machine) core.Metrics {
				return adaptmesh.RunWithPlans(m, mach, o.MeshW, plans)
			})
		}
		sameChecksum("mesh", p, res)
		out.sample = res[0]
	}
	// The hybrid runs one MP rank per node board, so its plans are built at
	// the node count of the largest machine.
	hp := procs[len(procs)-1]
	hm := machine.MustNew(machine.Default(hp))
	var hplans []*adaptmesh.CyclePlan
	tr.do("adaptmesh.Plans", fmt.Sprintf("mesh/hybrid/%d", hp), func() { hplans = out.meshSt.Plans(hm.Nodes(), false) })
	out.runNS["mesh/hybrid"] = tr.do("mesh.run.hybrid", fmt.Sprintf("mesh/hybrid/%d", hp), func() {
		adaptmesh.RunHybridWithPlans(hm, o.MeshW, hplans)
	})

	tr.do("barnes.BuildStructure", "nbody", func() { out.nbodySt = barnes.BuildStructure(o.NBodyW) })
	for _, p := range procs {
		var plans []*barnes.StepPlan
		tr.do("barnes.Plans", fmt.Sprintf("nbody/%d", p), func() { plans = out.nbodySt.Plans(p) })
		var res [3]core.Metrics
		for i, m := range models {
			res[i] = cell("nbody", m, p, func(mach *machine.Machine) core.Metrics {
				return barnes.RunWithPlans(m, mach, o.NBodyW, plans)
			})
		}
		sameChecksum("nbody", p, res)
	}

	var cm *mesh.Mesh
	tr.do("cg.BuildMesh", "cg", func() { cm = cg.BuildMesh(o.CGW) })
	for _, p := range procs {
		var pl *cg.Plan
		tr.do("cg.PlanForMesh", fmt.Sprintf("cg/%d", p), func() { pl = cg.PlanForMesh(o.CGW, cm, p) })
		out.cgPlan[p] = pl
		var res [3]core.Metrics
		for i, m := range models {
			res[i] = cell("cg", m, p, func(mach *machine.Machine) core.Metrics {
				return cg.RunWithPlan(m, mach, o.CGW, pl)
			})
		}
		sameChecksum("cg", p, res)
	}

	for _, p := range procs {
		var res [3]core.Metrics
		for i, m := range models {
			res[i] = cell("stencil", m, p, func(mach *machine.Machine) core.Metrics {
				return stencil.Run(m, mach, o.StencilW)
			})
		}
		sameChecksum("stencil", p, res)
	}
	return out
}

// bigGang runs the mesh app's three models at one large processor count and
// returns their summed host time.
func bigGang(tr *tracer, st *adaptmesh.Structure, w adaptmesh.Workload, p int) time.Duration {
	var plans []*adaptmesh.CyclePlan
	tr.do("adaptmesh.Plans", fmt.Sprintf("mesh/%d", p), func() { plans = st.Plans(p, false) })
	var total time.Duration
	for _, m := range core.AllModels() {
		id := fmt.Sprintf("mesh/%s/%d", modelSlug(m), p)
		total += tr.do("mesh.run."+modelSlug(m)+".big", id, func() {
			adaptmesh.RunWithPlans(m, machine.MustNew(machine.Default(p)), w, plans)
		})
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// rosterMetrics is the roster part of the per-layer ledger.
func rosterMetrics(z sizing, tr *tracer, cache *diskcache.Cache, set func(name string, v float64, unit string, n int)) *rosterOut {
	o, procs := experiments.DefaultOpts(), rosterProcs
	big, huge := 512, 1024
	if z.smoke {
		o, procs, big, huge = experiments.QuickOpts(), []int{1, 4}, 32, 64
	}
	ro := roster(tr, o, procs, cache)
	n := len(procs)

	set("apps.adaptmesh.structure_ms", ms(tr.total("adaptmesh.BuildStructure")), "ms", 1)
	set("apps.adaptmesh.plans_ms", ms(tr.total("adaptmesh.Plans")), "ms", n+1)
	set("apps.barnes.structure_ms", ms(tr.total("barnes.BuildStructure")), "ms", 1)
	set("apps.barnes.plans_ms", ms(tr.total("barnes.Plans")), "ms", n)
	set("apps.cg.mesh_ms", ms(tr.total("cg.BuildMesh")), "ms", 1)
	set("apps.cg.plan_ms", ms(tr.total("cg.PlanForMesh")), "ms", n)
	for app, name := range map[string]string{"mesh": "adaptmesh", "nbody": "barnes", "cg": "cg", "stencil": "stencil"} {
		var host time.Duration
		var acc float64
		for _, m := range core.AllModels() {
			key := app + "/" + modelSlug(m)
			set(fmt.Sprintf("apps.%s.run_ms.%s", name, modelSlug(m)), ms(ro.runNS[key]), "ms", n)
			host += ro.runNS[key]
			acc += accesses(ro.counters[key])
		}
		set(fmt.Sprintf("apps.%s.ns_per_access", name), float64(host)/acc, "ns", 3*n)
	}
	set("apps.adaptmesh.run_ms.hybrid", ms(ro.runNS["mesh/hybrid"]), "ms", 1)

	// The large gangs: full workload at 512 (the scale_cold regime), the
	// quick workload at 1024 — a full-scale P = 1024 sweep is ~12 s of host
	// time, more than a traced run can spend on one number.
	set("apps.adaptmesh.run_ms_p512", ms(bigGang(tr, ro.meshSt, o.MeshW, big)), "ms", 3)
	qw := experiments.QuickOpts().MeshW
	var qst *adaptmesh.Structure
	tr.do("adaptmesh.BuildStructure", "mesh/quick", func() { qst = adaptmesh.BuildStructure(qw) })
	set("apps.adaptmesh.quick_run_ms_p1024", ms(bigGang(tr, qst, qw, huge)), "ms", 3)

	// Exact counts, summed over the paper roster.
	var all, mp, shm, sas sim.Counters
	for key, c := range ro.counters {
		c := c
		all.Add(&c)
		switch {
		case strings.HasSuffix(key, "/mp"):
			mp.Add(&c)
		case strings.HasSuffix(key, "/shmem"):
			shm.Add(&c)
		default:
			sas.Add(&c)
		}
	}
	set("numa.accesses", accesses(all), "count", ro.cells)
	set("numa.misses", float64(all.LocalMisses+all.RemoteMisses), "count", ro.cells)
	set("numa.coh_misses", float64(all.CohMisses), "count", ro.cells)
	set("mp.msgs", float64(mp.MsgsSent), "count", ro.cells/3)
	set("mp.bytes", float64(mp.BytesSent), "count", ro.cells/3)
	set("shm.msgs", float64(shm.MsgsSent), "count", ro.cells/3)
	set("sas.lock_ops", float64(sas.LockOps), "count", ro.cells/3)

	codecKernels(z, tr, ro, o, procs[n-1], set)
	return ro
}

// codecKernels times the plan-tier text codecs on the roster's own
// structures — the payloads a warm pass decodes before it can assemble a
// single table.
func codecKernels(z sizing, tr *tracer, ro *rosterOut, o experiments.Opts, p int, set func(string, float64, string, int)) {
	rounds := z.rounds
	if rounds > 3 {
		rounds = 3 // these are tens of milliseconds each
	}
	med := func(name string, f func()) float64 {
		var v []float64
		for i := 0; i < rounds; i++ {
			v = append(v, ms(tr.do(name, "codec", f)))
		}
		return median(v)
	}
	sw := o.MeshW
	sw.SolveIters, sw.AuxFields = 0, 0 // what the runner strips before keying the structure cell
	var enc []byte
	set("apps.adaptmesh.structure_encode_ms", med("adaptmesh.EncodeStructure", func() { enc = adaptmesh.EncodeStructure(ro.meshSt, sw) }), "ms", rounds)
	var dst *adaptmesh.Structure
	set("apps.adaptmesh.structure_decode_ms", med("adaptmesh.DecodeStructure", func() { dst, _ = adaptmesh.DecodeStructure(enc, sw) }), "ms", rounds)
	if dst == nil {
		ro.problems = append(ro.problems, "adaptmesh structure does not round-trip through its codec")
		dst = ro.meshSt
	}
	set("planio.scan_mb_per_s", scanRate(enc, rounds), "MB/s", rounds)
	penc := adaptmesh.EncodePlans(ro.meshPlans[p], p)
	set("apps.adaptmesh.plans_decode_ms_p64", med("adaptmesh.DecodePlans", func() { dst.DecodePlans(penc, p) }), "ms", rounds)
	benc := barnes.EncodeStructure(ro.nbodySt)
	set("apps.barnes.structure_decode_ms", med("barnes.DecodeStructure", func() { barnes.DecodeStructure(benc, o.NBodyW) }), "ms", rounds)
	cw := o.CGW
	cw.Iters, cw.Sigma = 0, 0
	cenc := cg.EncodePlan(ro.cgPlan[p])
	set("apps.cg.plan_decode_ms_p64", med("cg.DecodePlan", func() { cg.DecodePlan(cenc, cw, ro.cgPlan[p].M, p) }), "ms", rounds)
}

// scanRate tokenizes a real plan-tier payload with the planio scanner and
// reports megabytes per second.
func scanRate(data []byte, rounds int) float64 {
	var v []float64
	for i := 0; i < rounds; i++ {
		start := time.Now()
		s := planio.NewScanner(data)
		for s.Err() == nil && s.Word() != "" {
		}
		v = append(v, float64(len(data))/1e6/time.Since(start).Seconds())
	}
	return median(v)
}
