// Package experiments regenerates every (reconstructed) table and figure of
// the evaluation — see DESIGN.md §5 for the experiment index and
// EXPERIMENTS.md for recorded results.
//
// Experiments are declared as Specs in one index (the literal below;
// List/Lookup read it) and assembled from memoized simulation cells on a runner.Engine, so one
// invocation that produces many artifacts — `o2kbench -exp all`, the
// verdict checker — simulates each unique (application, model, machine,
// workload, P) cell exactly once, in parallel on a bounded worker pool.
//
// This package is also the one place that knows what a cell is: the typed
// cell helpers and their keys (cells.go), the application table the cell
// endpoint and the tracer resolve "app/model" against (apps.go), and the
// Request every front end — CLI flags, worker argv, POST body — reduces to
// (registry.go). The engine underneath is generic.
//
// Cells carry errors (DESIGN.md §5.3): a cell that panicked, timed out, or
// was cancelled renders as a FAILED(<reason>) table entry via the fmt*
// helpers below, and the rest of the table — and the rest of the run — is
// unaffected. Because failed cells only ever replace their own entries, the
// bytes of all non-failed entries are identical to a fully healthy run.
package experiments

import (
	"context"
	"fmt"

	"o2k/internal/apps/adaptmesh"
	"o2k/internal/apps/barnes"
	"o2k/internal/apps/cg"
	"o2k/internal/apps/stencil"
	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/runner"
	"o2k/internal/sim"
)

// Opts selects the experiment scale.
type Opts struct {
	Procs    []int              // processor counts for the scaling figures
	MeshW    adaptmesh.Workload // adaptive-mesh workload
	NBodyW   barnes.Workload    // N-body workload
	StencilW stencil.Workload   // regular-control workload
	CGW      cg.Workload        // conjugate-gradient workload
}

// DefaultOpts returns the full-scale configuration: the Origin2000 study's
// 1..64 processor range.
func DefaultOpts() Opts {
	return Opts{
		Procs:    []int{1, 2, 4, 8, 16, 32, 64},
		MeshW:    adaptmesh.Default(),
		NBodyW:   barnes.Default(),
		StencilW: stencil.Default(),
		CGW:      cg.Default(),
	}
}

// QuickOpts returns a reduced configuration for tests.
func QuickOpts() Opts {
	return Opts{
		Procs:    []int{1, 4, 16},
		MeshW:    adaptmesh.Small(),
		NBodyW:   barnes.Small(),
		StencilW: stencil.Small(),
		CGW:      cg.Small(),
	}
}

// Failure-aware cell renderers. Every table entry derived from a metrics
// cell goes through one of these: a failed cell yields its deterministic
// FAILED(<reason>) annotation, a healthy cell yields exactly the bytes the
// pre-failure-semantics code produced.

// fmtT renders a cell's total simulated time.
func fmtT(r runner.Res) string {
	if r.Err != nil {
		return runner.FailLabel(r.Err)
	}
	return core.FT(r.M.Total)
}

// fmtRatio renders num.Total/den.Total; either side's failure wins.
func fmtRatio(num, den runner.Res) string {
	if num.Err != nil {
		return runner.FailLabel(num.Err)
	}
	if den.Err != nil {
		return runner.FailLabel(den.Err)
	}
	return core.F(float64(num.M.Total) / float64(den.M.Total))
}

// fmtSpeedup renders base.Total/r.Total, the scaling figure-of-merit.
func fmtSpeedup(r, base runner.Res) string {
	if r.Err != nil {
		return runner.FailLabel(r.Err)
	}
	if base.Err != nil {
		return runner.FailLabel(base.Err)
	}
	return core.F(r.M.Speedup(base.M))
}

// fmtF renders f(metrics) as a 3-decimal float.
func fmtF(r runner.Res, f func(core.Metrics) float64) string {
	if r.Err != nil {
		return runner.FailLabel(r.Err)
	}
	return core.F(f(r.M))
}

// fmtU renders f(metrics) as an unsigned count (traffic counters).
func fmtU(r runner.Res, f func(core.Metrics) uint64) string {
	if r.Err != nil {
		return runner.FailLabel(r.Err)
	}
	return fmt.Sprintf("%d", f(r.M))
}

// The experiment index, in paper order: the one literal every front end's
// name resolves against.
func init() {
	for _, s := range []Spec{
		{Name: "workloads", Aliases: []string{"table1"},
			Title: "Table 1 — application and workload characteristics", Build: buildTable1},
		{Name: "mesh-speedup", Aliases: []string{"fig2"},
			Title: "Figure 2 — adaptive mesh: time and speedup vs processors", Build: buildFig2},
		{Name: "nbody-speedup", Aliases: []string{"fig3"},
			Title: "Figure 3 — Barnes-Hut N-body: time and speedup vs processors", Build: buildFig3},
		{Name: "breakdown", Aliases: []string{"fig4"},
			Title: "Figure 4 — mesh phase breakdown at the largest P", Build: buildFig4},
		{Name: "loc", Aliases: []string{"table5"},
			Title: "Table 5 — programming effort (lines of code per model)", Build: buildTable5},
		{Name: "memory", Aliases: []string{"table6"},
			Title: "Table 6 — model-visible data memory at the largest P", Build: buildTable6},
		{Name: "latency-sweep", Aliases: []string{"fig7"},
			Title: "Figure 7 — sensitivity to the remote:local latency ratio", Build: buildFig7},
		{Name: "loadbalance", Aliases: []string{"fig8"},
			Title: "Figure 8 — PLUM remapping on vs off", Build: buildFig8},
		{Name: "traffic", Aliases: []string{"table9"},
			Title: "Table 9 — communication/traffic statistics", Build: buildTable9},
		{Name: "regular-control", Aliases: []string{"fig10"},
			Title: "Figure 10 — MP:CC-SAS ratio, regular vs adaptive workloads", Build: buildFig10},
		{Name: "page-migration", Aliases: []string{"fig11"},
			Title: "Figure 11 — CC-SAS page-migration ablation", Build: buildFig11},
		{Name: "machine-sweep", Aliases: []string{"fig12"},
			Title: "Figure 12 — machine-class sweep (Origin/T3E/SMP/cluster)", Build: buildFig12},
		{Name: "hybrid", Aliases: []string{"fig13"},
			Title: "Figure 13 — hybrid MP+SAS extension", Build: buildFig13},
		{Name: "cg", Aliases: []string{"fig14"},
			Title: "Figure 14 — conjugate gradient scaling and reduction share", Build: buildFig14},
		{Name: "verdicts",
			Title: "the study's falsifiable predictions, checked", Build: buildVerdicts,
			Standalone: true},
	} {
		Register(s)
	}
}

func buildTable1(ctx context.Context, e *runner.Engine, o Opts) *core.Table {
	t := &core.Table{
		Title:  "Table 1 — Application and workload characteristics (reconstructed)",
		Header: []string{"application", "elements", "edges/interactions", "adapt cycles/steps", "sweeps per cycle", "max imbalance pre-LB"},
	}
	var mc MeshChars
	var nc NBodyChars
	var cc CGChars
	var meshErr, nbErr, cgErr error
	e.Warm(
		func() { mc, meshErr = MeshCharacteristics(ctx, e, o.MeshW, 1) },
		func() { nc, nbErr = NBodyCharacteristics(ctx, e, o.NBodyW, 1) },
		func() { cc, cgErr = CGCharacteristics(ctx, e, o.CGW, 1) },
	)
	// A zero-cycle/zero-step workload yields an empty plan sequence; render
	// it as a failure row instead of dividing by zero below.
	if meshErr == nil && mc.Cycles == 0 {
		meshErr = fmt.Errorf("empty plan sequence (Cycles=%d)", o.MeshW.Cycles)
	}
	if nbErr == nil && nc.Steps == 0 {
		nbErr = fmt.Errorf("empty plan sequence (Steps=%d)", o.NBodyW.Steps)
	}
	if meshErr != nil {
		t.AddRow("adaptive mesh", runner.FailLabel(meshErr), "", "", "", "")
	} else {
		t.AddRow("adaptive mesh",
			fmt.Sprintf("%d tris (final %d)", mc.Tris/mc.Cycles, mc.FinalTris),
			fmt.Sprintf("%d edges", mc.Edges/mc.Cycles),
			fmt.Sprintf("%d cycles", o.MeshW.Cycles),
			fmt.Sprintf("%d", o.MeshW.SolveIters),
			core.F(mc.Imbalance))
	}
	if nbErr != nil {
		t.AddRow("barnes-hut n-body", runner.FailLabel(nbErr), "", "", "", "")
	} else {
		t.AddRow("barnes-hut n-body",
			fmt.Sprintf("%d bodies", o.NBodyW.N),
			fmt.Sprintf("%d interactions/step", nc.Inter/nc.Steps),
			fmt.Sprintf("%d steps", o.NBodyW.Steps),
			"1",
			fmt.Sprintf("theta=%.2f, %d cells", o.NBodyW.Theta, nc.Cells/nc.Steps))
	}
	t.AddRow("jacobi stencil (control)",
		fmt.Sprintf("%dx%d grid", o.StencilW.N, o.StencilW.N),
		fmt.Sprintf("%d cells/sweep", o.StencilW.N*o.StencilW.N),
		"static",
		fmt.Sprintf("%d", o.StencilW.Iters),
		"1.000")
	if cgErr != nil {
		t.AddRow("conjugate gradient", runner.FailLabel(cgErr), "", "", "", "")
	} else {
		t.AddRow("conjugate gradient",
			fmt.Sprintf("%d tris", cc.Tris),
			fmt.Sprintf("%d edges (matrix rows %d)", cc.Edges, cc.Rows),
			"static refined",
			fmt.Sprintf("%d CG iters", o.CGW.Iters),
			"2 allreduce/iter")
	}
	return t
}

func buildFig2(ctx context.Context, e *runner.Engine, o Opts) *core.Table {
	return scalingTable(ctx, e, "Figure 2 — Adaptive mesh: time and speedup vs processors",
		o.Procs, func(p int) [3]runner.Res { return MeshModels(ctx, e, machine.Default(p), o.MeshW) })
}

func buildFig3(ctx context.Context, e *runner.Engine, o Opts) *core.Table {
	return scalingTable(ctx, e, "Figure 3 — Barnes-Hut N-body: time and speedup vs processors",
		o.Procs, func(p int) [3]runner.Res { return NBodyModels(ctx, e, machine.Default(p), o.NBodyW) })
}

// scalingTable resolves every processor count's cells in parallel, then
// assembles the rows serially, so row order never depends on execution
// order.
func scalingTable(ctx context.Context, e *runner.Engine, title string, procs []int, run func(p int) [3]runner.Res) *core.Table {
	t := &core.Table{
		Title: title,
		Header: []string{"P", "MP time", "SHMEM time", "CC-SAS time",
			"MP spdup", "SHMEM spdup", "CC-SAS spdup"},
	}
	res := each(e, len(procs), func(i int) [3]runner.Res { return run(procs[i]) })
	for i, p := range procs {
		m, base := res[i], res[0]
		t.AddRow(fmt.Sprintf("%d", p),
			fmtT(m[0]), fmtT(m[1]), fmtT(m[2]),
			fmtSpeedup(m[0], base[0]), fmtSpeedup(m[1], base[1]), fmtSpeedup(m[2], base[2]))
	}
	return t
}

func buildFig4(ctx context.Context, e *runner.Engine, o Opts) *core.Table {
	p := o.Procs[len(o.Procs)-1]
	m := MeshModels(ctx, e, machine.Default(p), o.MeshW)
	t := &core.Table{
		Title:  fmt.Sprintf("Figure 4 — Adaptive mesh phase breakdown at P=%d", p),
		Header: []string{"phase", "MP", "SHMEM", "CC-SAS"},
	}
	phase := func(r runner.Res, ph sim.Phase) string {
		if r.Err != nil {
			return runner.FailLabel(r.Err)
		}
		return core.FT(r.M.PhaseMax[ph])
	}
	for ph := sim.Phase(0); ph < sim.NumPhases; ph++ {
		// Failed models contribute zero here, so an all-models failure
		// collapses the breakdown to the TOTAL row — which carries the
		// FAILED annotations.
		if m[0].M.PhaseMax[ph] == 0 && m[1].M.PhaseMax[ph] == 0 && m[2].M.PhaseMax[ph] == 0 {
			continue
		}
		t.AddRow(ph.String(), phase(m[0], ph), phase(m[1], ph), phase(m[2], ph))
	}
	t.AddRow("TOTAL", fmtT(m[0]), fmtT(m[1]), fmtT(m[2]))
	return t
}

func buildTable6(ctx context.Context, e *runner.Engine, o Opts) *core.Table {
	p := o.Procs[len(o.Procs)-1]
	var mm, nb [3]runner.Res
	e.Warm(
		func() { mm = MeshModels(ctx, e, machine.Default(p), o.MeshW) },
		func() { nb = NBodyModels(ctx, e, machine.Default(p), o.NBodyW) },
	)
	t := &core.Table{
		Title:  fmt.Sprintf("Table 6 — Model-visible data memory at P=%d (bytes)", p),
		Header: []string{"application", "MP", "SHMEM", "CC-SAS", "MP/CC-SAS ratio"},
	}
	bytes := func(r runner.Res) string {
		if r.Err != nil {
			return runner.FailLabel(r.Err)
		}
		return fmt.Sprintf("%d", r.M.DataBytes)
	}
	byteRatio := func(a, b runner.Res) string {
		if a.Err != nil {
			return runner.FailLabel(a.Err)
		}
		if b.Err != nil {
			return runner.FailLabel(b.Err)
		}
		return core.F(float64(a.M.DataBytes) / float64(b.M.DataBytes))
	}
	t.AddRow("adaptive mesh", bytes(mm[0]), bytes(mm[1]), bytes(mm[2]), byteRatio(mm[0], mm[2]))
	t.AddRow("barnes-hut n-body", bytes(nb[0]), bytes(nb[1]), bytes(nb[2]), byteRatio(nb[0], nb[2]))
	return t
}

// fig7Ratios is the remote:local latency sweep of the sensitivity ablation.
var fig7Ratios = []float64{1, 2, 4, 8}

// fig7Config scales the baseline NUMA latencies by the given ratio.
func fig7Config(procs int, ratio float64) machine.Config {
	cfg := machine.Default(procs)
	cfg.RemoteMissNS = sim.Time(float64(cfg.LocalMissNS) * ratio)
	cfg.RemoteHopNS = sim.Time(float64(cfg.RemoteHopNS) * ratio / 1.5)
	return cfg
}

func buildFig7(ctx context.Context, e *runner.Engine, o Opts) *core.Table {
	procs := o.Procs[len(o.Procs)-1]
	if procs > 32 {
		procs = 32
	}
	t := &core.Table{
		Title:  fmt.Sprintf("Figure 7 — Sensitivity to remote:local latency ratio (mesh, P=%d)", procs),
		Header: []string{"ratio", "MP", "SHMEM", "CC-SAS", "CC-SAS/MP"},
	}
	res := each(e, len(fig7Ratios), func(i int) [3]runner.Res {
		return MeshModels(ctx, e, fig7Config(procs, fig7Ratios[i]), o.MeshW)
	})
	for i, ratio := range fig7Ratios {
		m := res[i]
		t.AddRow(fmt.Sprintf("%.1fx", ratio),
			fmtT(m[0]), fmtT(m[1]), fmtT(m[2]), fmtRatio(m[2], m[0]))
	}
	return t
}

func buildFig8(ctx context.Context, e *runner.Engine, o Opts) *core.Table {
	procs := o.Procs[len(o.Procs)-1]
	t := &core.Table{
		Title:  fmt.Sprintf("Figure 8 — PLUM remapping on vs off (mesh, P=%d)", procs),
		Header: []string{"model", "remap on", "remap off", "moved weight on", "moved weight off"},
	}
	wOff := o.MeshW
	wOff.NoRemap = true
	var on, off [3]runner.Res
	e.Warm(
		func() { on = MeshModels(ctx, e, machine.Default(procs), o.MeshW) },
		func() { off = MeshModels(ctx, e, machine.Default(procs), wOff) },
	)
	moved := func(r runner.Res) string {
		if r.Err != nil {
			return runner.FailLabel(r.Err)
		}
		return core.F(r.M.Extra["moved_weight"])
	}
	for i, model := range core.AllModels() {
		t.AddRow(model.String(),
			fmtT(on[i]), fmtT(off[i]), moved(on[i]), moved(off[i]))
	}
	return t
}

func buildTable9(ctx context.Context, e *runner.Engine, o Opts) *core.Table {
	t := &core.Table{
		Title:  "Table 9 — Traffic statistics (mesh application)",
		Header: []string{"P", "model", "msgs", "bytes", "remote misses", "coh evictions", "lock ops"},
	}
	procs := []int{o.Procs[len(o.Procs)/2], o.Procs[len(o.Procs)-1]}
	res := each(e, len(procs), func(i int) [3]runner.Res {
		return MeshModels(ctx, e, machine.Default(procs[i]), o.MeshW)
	})
	for i, p := range procs {
		for j, model := range core.AllModels() {
			r := res[i][j]
			t.AddRow(fmt.Sprintf("%d", p), model.String(),
				fmtU(r, func(m core.Metrics) uint64 { return m.Counters.MsgsSent }),
				fmtU(r, func(m core.Metrics) uint64 { return m.Counters.BytesSent }),
				fmtU(r, func(m core.Metrics) uint64 { return m.Counters.RemoteMisses }),
				fmtU(r, func(m core.Metrics) uint64 { return m.Counters.CohMisses }),
				fmtU(r, func(m core.Metrics) uint64 { return m.Counters.LockOps }))
		}
	}
	return t
}

func buildFig10(ctx context.Context, e *runner.Engine, o Opts) *core.Table {
	t := &core.Table{
		Title:  "Figure 10 — MP:CC-SAS time ratio, regular vs adaptive workloads",
		Header: []string{"P", "stencil (regular)", "adaptive mesh", "n-body"},
	}
	var procs []int
	for _, p := range o.Procs {
		if p >= 4 { // ratios at tiny P are all ~1 and waste a row
			procs = append(procs, p)
		}
	}
	type row struct {
		st0, st2 runner.Res
		me, nb   [3]runner.Res
	}
	res := make([]row, len(procs))
	var fns []func()
	for i, p := range procs {
		fns = append(fns,
			func() { res[i].st0 = Stencil(ctx, e, core.MP, machine.Default(p), o.StencilW) },
			func() { res[i].st2 = Stencil(ctx, e, core.SAS, machine.Default(p), o.StencilW) },
			func() { res[i].me = MeshModels(ctx, e, machine.Default(p), o.MeshW) },
			func() { res[i].nb = NBodyModels(ctx, e, machine.Default(p), o.NBodyW) },
		)
	}
	e.Warm(fns...)
	for i, p := range procs {
		r := res[i]
		t.AddRow(fmt.Sprintf("%d", p),
			fmtRatio(r.st0, r.st2), fmtRatio(r.me[0], r.me[2]), fmtRatio(r.nb[0], r.nb[2]))
	}
	return t
}

func buildFig11(ctx context.Context, e *runner.Engine, o Opts) *core.Table {
	t := &core.Table{
		Title:  "Figure 11 — CC-SAS page migration ablation (adaptive mesh)",
		Header: []string{"P", "first-touch", "page-migrate", "remote misses FT", "remote misses PM"},
	}
	wMig := o.MeshW
	wMig.SasPageMigrate = true
	var procs []int
	for _, p := range o.Procs {
		if p >= 4 {
			procs = append(procs, p)
		}
	}
	ft := make([]runner.Res, len(procs))
	pm := make([]runner.Res, len(procs))
	var fns []func()
	for i, p := range procs {
		fns = append(fns,
			func() { ft[i] = Mesh(ctx, e, core.SAS, machine.Default(p), o.MeshW) },
			func() { pm[i] = Mesh(ctx, e, core.SAS, machine.Default(p), wMig) },
		)
	}
	e.Warm(fns...)
	for i, p := range procs {
		t.AddRow(fmt.Sprintf("%d", p),
			fmtT(ft[i]), fmtT(pm[i]),
			fmtU(ft[i], func(m core.Metrics) uint64 { return m.Counters.RemoteMisses }),
			fmtU(pm[i], func(m core.Metrics) uint64 { return m.Counters.RemoteMisses }))
	}
	return t
}

// fig12Classes are the machine classes of the conditional-claim sweep.
func fig12Classes(procs int) []struct {
	name string
	cfg  machine.Config
} {
	return []struct {
		name string
		cfg  machine.Config
	}{
		{"origin2000 (ccNUMA)", machine.Default(procs)},
		{"t3e (MPP)", machine.T3E(procs)},
		{"ideal SMP", machine.SMP(procs)},
		{"cluster of SMPs", machine.ClusterOfSMPs(procs)},
	}
}

func buildFig12(ctx context.Context, e *runner.Engine, o Opts) *core.Table {
	procs := o.Procs[len(o.Procs)-1]
	if procs > 32 {
		procs = 32
	}
	t := &core.Table{
		Title:  fmt.Sprintf("Figure 12 — Machine-class sweep (mesh, P=%d)", procs),
		Header: []string{"machine", "MP", "SHMEM", "CC-SAS", "winner"},
	}
	classes := fig12Classes(procs)
	res := each(e, len(classes), func(i int) [3]runner.Res { return MeshModels(ctx, e, classes[i].cfg, o.MeshW) })
	for i, cl := range classes {
		winner := "n/a" // undecidable when any model's cell failed
		if !res[i][0].Failed() && !res[i][1].Failed() && !res[i][2].Failed() {
			best := 0
			for j := range res[i] {
				if res[i][j].M.Total < res[i][best].M.Total {
					best = j
				}
			}
			winner = core.AllModels()[best].String()
		}
		t.AddRow(cl.name, fmtT(res[i][0]), fmtT(res[i][1]), fmtT(res[i][2]), winner)
	}
	return t
}

func buildFig13(ctx context.Context, e *runner.Engine, o Opts) *core.Table {
	procs := o.Procs[len(o.Procs)-1]
	t := &core.Table{
		Title:  fmt.Sprintf("Figure 13 — Hybrid MP+SAS extension (mesh, P=%d)", procs),
		Header: []string{"machine", "MP", "MP+SAS hybrid", "CC-SAS", "hybrid/MP"},
	}
	classes := []struct {
		name string
		cfg  machine.Config
	}{
		{"origin2000", machine.Default(procs)},
		{"cluster of SMPs", machine.ClusterOfSMPs(procs)},
	}
	type row struct{ pure, sas, hyb runner.Res }
	res := make([]row, len(classes))
	var fns []func()
	for i, cl := range classes {
		fns = append(fns,
			func() { res[i].pure = Mesh(ctx, e, core.MP, cl.cfg, o.MeshW) },
			func() { res[i].sas = Mesh(ctx, e, core.SAS, cl.cfg, o.MeshW) },
			func() { res[i].hyb = MeshHybrid(ctx, e, cl.cfg, o.MeshW) },
		)
	}
	e.Warm(fns...)
	for i, cl := range classes {
		r := res[i]
		t.AddRow(cl.name, fmtT(r.pure), fmtT(r.hyb), fmtT(r.sas), fmtRatio(r.hyb, r.pure))
	}
	return t
}

func buildFig14(ctx context.Context, e *runner.Engine, o Opts) *core.Table {
	t := &core.Table{
		Title:  "Figure 14 — Conjugate gradient: time vs processors, reduction share",
		Header: []string{"P", "MP", "SHMEM", "CC-SAS", "MP sync frac", "CC-SAS sync frac"},
	}
	res := each(e, len(o.Procs), func(i int) [3]runner.Res { return CGModels(ctx, e, machine.Default(o.Procs[i]), o.CGW) })
	syncFrac := func(m core.Metrics) float64 { return m.PhaseFraction(sim.PhaseSync) }
	for i, p := range o.Procs {
		met := res[i]
		t.AddRow(fmt.Sprintf("%d", p),
			fmtT(met[0]), fmtT(met[1]), fmtT(met[2]),
			fmtF(met[0], syncFrac), fmtF(met[2], syncFrac))
	}
	return t
}
