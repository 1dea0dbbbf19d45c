// Package experiments regenerates every (reconstructed) table and figure of
// the evaluation — see DESIGN.md §5.6 for the experiment index and
// EXPERIMENTS.md for recorded results.
//
// Experiments are declared as Specs in one index (the literal below;
// List/Lookup read it) and assembled from memoized simulation cells on a runner.Engine, so one
// invocation that produces many artifacts — `o2kbench -exp all`, the
// verdict checker — simulates each unique (application, model, machine,
// workload, P) cell exactly once, in parallel on a bounded worker pool.
//
// This package is also the one place that knows what a cell is: the
// application table, whose rows define each run cell for the builders, the
// cell endpoint and the tracer alike (apps.go), the plan and characteristics
// cells and their keys (cells.go, chars.go), and the Request every front end
// — CLI flags, worker argv, POST body — reduces to (registry.go). The engine
// underneath is generic.
//
// Cells carry errors (DESIGN.md §5.7): a cell that panicked, timed out, or
// was cancelled reads as FAILED(<reason>) in every entry read off it, by the
// one rule below, and the rest of the table — and the rest of the run — is
// unaffected. Because failed cells only ever replace their own entries, the
// bytes of all non-failed entries are identical to a fully healthy run.
package experiments

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

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
// 1..64 processor range, the "paper" preset.
func DefaultOpts() Opts {
	procs, _ := ProcsPreset("paper")
	return Opts{
		Procs:    procs,
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

// One rule for reading a failed cell. Every table entry and every verdict
// check reads metrics cells through text and read, and nothing else decides
// what a failed cell reads as: as text, the first failure's FAILED(<reason>);
// as a number, NaN, so every comparison with it is false. A healthy entry
// prints exactly the bytes it always printed.

// text renders an entry read off cells whose errors are errs: the first
// failure as FAILED(<reason>), else healthy() (which a caller holding a
// failure may leave nil).
func text(healthy func() string, errs ...error) string {
	if err := cmp.Or(errs...); err != nil {
		return runner.FailLabel(err)
	}
	return healthy()
}

// num is one number read off cells, with the first failure among them.
type num struct {
	x    float64 // NaN when err is set
	err  error
	show func(float64) string // the table text of a healthy x
}

// read is x, a number read off the metrics of cells rs, unless one failed
// (a failed cell's metrics are zero values).
func read(show func(float64) string, x float64, rs ...runner.Res) num {
	for _, r := range rs {
		if r.Err != nil {
			return num{math.NaN(), r.Err, show}
		}
	}
	return num{x, nil, show}
}

// per is a/b, carrying the first failure of either side.
func (a num) per(b num) num { return num{a.x / b.x, cmp.Or(a.err, b.err), core.F} }

// String is n as a table entry.
func (n num) String() string { return text(func() string { return n.show(n.x) }, n.err) }

// Format prints n by the same rule: %v is the table entry, any other verb
// formats the number, and a failed n prints FAILED(<reason>) under every verb.
func (n num) Format(f fmt.State, verb rune) {
	if verb != 'v' {
		n.show = func(x float64) string { return fmt.Sprintf(fmt.FormatString(f, verb), x) }
	}
	io.WriteString(f, n.String())
}

func asTime(x float64) string  { return core.FT(sim.Time(x)) }
func asCount(x float64) string { return strconv.FormatInt(int64(x), 10) }

// The numbers the tables and checks read off a cell or a model triple.
func total(r runner.Res) num     { return read(asTime, float64(r.M.Total), r) }
func dataBytes(r runner.Res) num { return read(asCount, float64(r.M.DataBytes), r) }
func moved(r runner.Res) num     { return read(core.F, r.M.MovedWeight, r) }
func syncFrac(r runner.Res) num  { return read(core.F, r.M.PhaseFraction(sim.PhaseSync), r) }
func gap(r [3]runner.Res) num    { return total(r[0]).per(total(r[2])) } // MP:CC-SAS time

// triple reads f off each cell of a model triple.
func triple(r [3]runner.Res, f func(runner.Res) num) [3]num { return [3]num{f(r[0]), f(r[1]), f(r[2])} }

// The experiment index, in paper order: the one literal every front end's
// name resolves against. init indexes it once; a spec without a name, title
// or builder, a duplicate name or alias, or the reserved "all" panics, because
// a broken table of contents should stop the program.
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
		if s.Name == "" || s.Title == "" || s.Build == nil {
			panic(fmt.Sprintf("experiments: incomplete spec %+v", s))
		}
		for _, n := range append([]string{s.Name}, s.Aliases...) {
			n = strings.ToLower(n)
			if n == "all" {
				panic(`experiments: "all" is reserved`)
			}
			if _, dup := byName[n]; dup {
				panic(fmt.Sprintf("experiments: duplicate experiment name %q", n))
			}
			byName[n] = len(registry)
		}
		registry = append(registry, s)
	}
}

func buildTable1(ctx context.Context, e *runner.Engine, o Opts) *core.Table {
	t := &core.Table{
		Title:  "Table 1 — Application and workload characteristics (reconstructed)",
		Header: []string{"application", "elements", "edges/interactions", "adapt cycles/steps", "sweeps per cycle"},
	}
	var mc meshChars
	var nc nbodyChars
	var cc cgChars
	var meshErr, nbErr, cgErr error
	e.Warm(
		func() { mc, meshErr = meshCharacteristics(ctx, e, o.MeshW) },
		func() { nc, nbErr = nbodyCharacteristics(ctx, e, o.NBodyW) },
		func() { cc, cgErr = cgCharacteristics(ctx, e, o.CGW) },
	)
	// A zero-cycle/zero-step workload has an empty structure; it reads
	// as a failed cell, and max keeps its averages below defined.
	if mc.Cycles == 0 {
		meshErr = cmp.Or(meshErr, fmt.Errorf("empty plan sequence (Cycles=%d)", o.MeshW.Cycles))
	}
	if nc.Steps == 0 {
		nbErr = cmp.Or(nbErr, fmt.Errorf("empty plan sequence (Steps=%d)", o.NBodyW.Steps))
	}
	cycles, steps := max(mc.Cycles, 1), max(nc.Steps, 1)
	// Each application's row describes its characteristics cell, so every
	// entry of it prints that cell's failure.
	f := func(err error, format string, a ...any) string {
		return text(func() string { return fmt.Sprintf(format, a...) }, err)
	}
	t.AddRow("adaptive mesh",
		f(meshErr, "%d tris (final %d)", mc.Tris/cycles, mc.FinalTris),
		f(meshErr, "%d edges", mc.Edges/cycles),
		f(meshErr, "%d cycles", o.MeshW.Cycles),
		f(meshErr, "%d", o.MeshW.SolveIters))
	t.AddRow("barnes-hut n-body",
		f(nbErr, "%d bodies", o.NBodyW.N),
		f(nbErr, "%d interactions/step, theta=%.2f, %d cells", nc.Inter/steps, o.NBodyW.Theta, nc.Cells/steps),
		f(nbErr, "%d steps", o.NBodyW.Steps),
		f(nbErr, "1"))
	t.AddRow("jacobi stencil (control)",
		fmt.Sprintf("%dx%d grid", o.StencilW.N, o.StencilW.N),
		fmt.Sprintf("%d cells/sweep", o.StencilW.N*o.StencilW.N),
		"static",
		fmt.Sprintf("%d", o.StencilW.Iters))
	t.AddRow("conjugate gradient",
		f(cgErr, "%d tris", cc.Tris),
		f(cgErr, "%d edges (matrix rows %d)", cc.Edges, cc.Rows),
		f(cgErr, "static refined"),
		f(cgErr, "%d CG iters, 2 allreduce each", o.CGW.Iters))
	return t
}

func buildFig2(ctx context.Context, e *runner.Engine, o Opts) *core.Table {
	return scalingTable(ctx, e, "Figure 2 — Adaptive mesh: time and speedup vs processors",
		o.Procs, func(p int) [3]runner.Res { return meshApp.cells(ctx, e, machine.Default(p), o) })
}

func buildFig3(ctx context.Context, e *runner.Engine, o Opts) *core.Table {
	return scalingTable(ctx, e, "Figure 3 — Barnes-Hut N-body: time and speedup vs processors",
		o.Procs, func(p int) [3]runner.Res { return nbodyApp.cells(ctx, e, machine.Default(p), o) })
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
		spdup := func(j int) string { return read(core.F, m[j].M.Speedup(base[j].M), m[j], base[j]).String() }
		t.AddRow(fmt.Sprintf("%d", p),
			total(m[0]).String(), total(m[1]).String(), total(m[2]).String(), spdup(0), spdup(1), spdup(2))
	}
	return t
}

func buildFig4(ctx context.Context, e *runner.Engine, o Opts) *core.Table {
	p := o.Procs[len(o.Procs)-1]
	m := meshApp.cells(ctx, e, machine.Default(p), o)
	t := &core.Table{
		Title:  fmt.Sprintf("Figure 4 — Adaptive mesh phase breakdown at P=%d (per-phase maximum over processors; rows do not sum to TOTAL)", p),
		Header: []string{"phase", "MP", "SHMEM", "CC-SAS"},
	}
	for ph := sim.Phase(0); ph < sim.NumPhases; ph++ {
		row := triple(m, func(r runner.Res) num { return read(asTime, float64(r.M.PhaseMax[ph]), r) })
		// A phase no model spent time in has no row; a failed model's NaN
		// counts as none, so an all-models failure collapses the breakdown
		// to the TOTAL row, which carries the FAILED annotations.
		if row[0].x > 0 || row[1].x > 0 || row[2].x > 0 {
			t.AddRow(ph.String(), row[0].String(), row[1].String(), row[2].String())
		}
	}
	t.AddRow("TOTAL", total(m[0]).String(), total(m[1]).String(), total(m[2]).String())
	return t
}

func buildTable6(ctx context.Context, e *runner.Engine, o Opts) *core.Table {
	p := o.Procs[len(o.Procs)-1]
	var mm, nb [3]runner.Res
	e.Warm(
		func() { mm = meshApp.cells(ctx, e, machine.Default(p), o) },
		func() { nb = nbodyApp.cells(ctx, e, machine.Default(p), o) },
	)
	t := &core.Table{
		Title:  fmt.Sprintf("Table 6 — Model-visible data memory at P=%d (bytes)", p),
		Header: []string{"application", "MP", "SHMEM", "CC-SAS", "MP/CC-SAS ratio"},
	}
	for _, app := range []struct {
		name string
		r    [3]runner.Res
	}{{"adaptive mesh", mm}, {"barnes-hut n-body", nb}} {
		b := triple(app.r, dataBytes)
		t.AddRow(app.name, b[0].String(), b[1].String(), b[2].String(), b[0].per(b[2]).String())
	}
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

// fig7Ratio is Figure 7's CC-SAS/MP entry, rounded to the three decimals the
// figure prints, so V6 compares what a reader sees.
func fig7Ratio(mp, sas runner.Res) num {
	n := total(sas).per(total(mp))
	n.x, _ = strconv.ParseFloat(core.F(n.x), 64) // "NaN" parses as NaN
	return n
}

// fig7Procs is the P of Figure 7 and of V6: the largest -procs value, capped at 32.
func fig7Procs(o Opts) int { return min(o.Procs[len(o.Procs)-1], 32) }

func buildFig7(ctx context.Context, e *runner.Engine, o Opts) *core.Table {
	procs := fig7Procs(o)
	t := &core.Table{
		Title:  fmt.Sprintf("Figure 7 — Sensitivity to remote:local latency ratio (mesh, P=%d)", procs),
		Header: []string{"ratio", "MP", "SHMEM", "CC-SAS", "CC-SAS/MP"},
	}
	res := each(e, len(fig7Ratios), func(i int) [3]runner.Res {
		return meshApp.cells(ctx, e, fig7Config(procs, fig7Ratios[i]), o)
	})
	for i, ratio := range fig7Ratios {
		m := res[i]
		t.AddRow(fmt.Sprintf("%.1fx", ratio),
			total(m[0]).String(), total(m[1]).String(), total(m[2]).String(), fig7Ratio(m[0], m[2]).String())
	}
	return t
}

func buildFig8(ctx context.Context, e *runner.Engine, o Opts) *core.Table {
	procs := o.Procs[len(o.Procs)-1]
	t := &core.Table{
		Title:  fmt.Sprintf("Figure 8 — PLUM remapping on vs off (mesh, P=%d)", procs),
		Header: []string{"model", "remap on", "remap off", "moved weight on", "moved weight off"},
	}
	oOff := o
	oOff.MeshW.NoRemap = true
	var on, off [3]runner.Res
	e.Warm(
		func() { on = meshApp.cells(ctx, e, machine.Default(procs), o) },
		func() { off = meshApp.cells(ctx, e, machine.Default(procs), oOff) },
	)
	for i, model := range core.AllModels() {
		t.AddRow(model.String(),
			total(on[i]).String(), total(off[i]).String(), moved(on[i]).String(), moved(off[i]).String())
	}
	return t
}

func buildTable9(ctx context.Context, e *runner.Engine, o Opts) *core.Table {
	t := &core.Table{
		Title:  "Table 9 — Traffic statistics (mesh application)",
		Header: []string{"P", "model", "msgs", "bytes", "remote misses", "coh evictions"},
	}
	procs := slices.Compact([]int{o.Procs[len(o.Procs)/2], o.Procs[len(o.Procs)-1]})
	res := each(e, len(procs), func(i int) [3]runner.Res {
		return meshApp.cells(ctx, e, machine.Default(procs[i]), o)
	})
	for i, p := range procs {
		for j, model := range core.AllModels() {
			r, row := res[i][j], []string{fmt.Sprintf("%d", p), model.String()}
			c := r.M.Counters
			for _, v := range []uint64{c.MsgsSent, c.BytesSent, c.RemoteMisses, c.CohMisses} {
				row = append(row, read(asCount, float64(v), r).String())
			}
			t.AddRow(row...)
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
			func() { res[i].st0 = stencilApp.cell(ctx, e, core.MP, machine.Default(p), o) },
			func() { res[i].st2 = stencilApp.cell(ctx, e, core.SAS, machine.Default(p), o) },
			func() { res[i].me = meshApp.cells(ctx, e, machine.Default(p), o) },
			func() { res[i].nb = nbodyApp.cells(ctx, e, machine.Default(p), o) },
		)
	}
	e.Warm(fns...)
	for i, p := range procs {
		r := res[i]
		t.AddRow(fmt.Sprintf("%d", p),
			total(r.st0).per(total(r.st2)).String(), gap(r.me).String(), gap(r.nb).String())
	}
	return t
}

func buildFig11(ctx context.Context, e *runner.Engine, o Opts) *core.Table {
	t := &core.Table{
		Title:  "Figure 11 — CC-SAS page migration ablation (adaptive mesh)",
		Header: []string{"P", "first-touch", "page-migrate", "remote misses FT", "remote misses PM"},
	}
	oMig := o
	oMig.MeshW.SasPageMigrate = true
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
			func() { ft[i] = meshApp.cell(ctx, e, core.SAS, machine.Default(p), o) },
			func() { pm[i] = meshApp.cell(ctx, e, core.SAS, machine.Default(p), oMig) },
		)
	}
	e.Warm(fns...)
	for i, p := range procs {
		t.AddRow(fmt.Sprintf("%d", p), total(ft[i]).String(), total(pm[i]).String(),
			read(asCount, float64(ft[i].M.Counters.RemoteMisses), ft[i]).String(),
			read(asCount, float64(pm[i].M.Counters.RemoteMisses), pm[i]).String())
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
	res := each(e, len(classes), func(i int) [3]runner.Res { return meshApp.cells(ctx, e, classes[i].cfg, o) })
	for i, cl := range classes {
		m := triple(res[i], total)
		winner := text(func() string {
			best := 0
			for j := range m {
				if m[j].x < m[best].x {
					best = j
				}
			}
			return core.AllModels()[best].String()
		}, m[0].err, m[1].err, m[2].err)
		t.AddRow(cl.name, m[0].String(), m[1].String(), m[2].String(), winner)
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
			func() { res[i].pure = meshApp.cell(ctx, e, core.MP, cl.cfg, o) },
			func() { res[i].sas = meshApp.cell(ctx, e, core.SAS, cl.cfg, o) },
			func() { res[i].hyb = hybridApp.cell(ctx, e, core.Hybrid, cl.cfg, o) },
		)
	}
	e.Warm(fns...)
	for i, cl := range classes {
		r := res[i]
		t.AddRow(cl.name, total(r.pure).String(), total(r.hyb).String(), total(r.sas).String(),
			total(r.hyb).per(total(r.pure)).String())
	}
	return t
}

func buildFig14(ctx context.Context, e *runner.Engine, o Opts) *core.Table {
	t := &core.Table{
		Title:  "Figure 14 — Conjugate gradient: time vs processors, reduction share",
		Header: []string{"P", "MP", "SHMEM", "CC-SAS", "MP sync frac", "CC-SAS sync frac"},
	}
	res := each(e, len(o.Procs), func(i int) [3]runner.Res { return cgApp.cells(ctx, e, machine.Default(o.Procs[i]), o) })
	for i, p := range o.Procs {
		met := res[i]
		t.AddRow(fmt.Sprintf("%d", p),
			total(met[0]).String(), total(met[1]).String(), total(met[2]).String(),
			syncFrac(met[0]).String(), syncFrac(met[2]).String())
	}
	return t
}
