package experiments

import (
	"context"
	"fmt"

	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/runner"
)

// evidence is everything the verdict checks read, filled once per table.
type evidence struct {
	maxP, midP                                  int
	meshMax, meshMid, nb, nbMid, t3e            [3]runner.Res
	fig7MP, fig7SAS                             [2]runner.Res // Figure 7's cells at its first and last ratio
	stMP, stSAS, hyb, cgMaxMP, cgMidMP, meshOff runner.Res    // meshOff: Figure 8's remap-off MP cell at max P
}

// verdicts are the study's falsifiable predictions, one claim per row, each
// checked by a pure function of the evidence; DESIGN §5a quotes the claims.
// A check reads cells only as nums and passes only through comparisons that
// NaN makes false, never a negated one, so no row passes on a failed cell.
var verdicts = []struct {
	id, claim string
	check     func(*evidence) (ok bool, text string)
}{
	{"V1", "adaptive mesh: CC-SAS < SHMEM < MP at max P", func(ev *evidence) (bool, string) {
		m := triple(ev.meshMax, total)
		return m[2].x < m[1].x && m[1].x < m[0].x, fmt.Sprintf("P=%d: %v / %v / %v", ev.maxP, m[0], m[1], m[2])
	}},
	{"V2", "MP:CC-SAS gap widens with P", func(ev *evidence) (bool, string) {
		mid, top := gap(ev.meshMid), gap(ev.meshMax)
		return top.x > mid.x, fmt.Sprintf("P=%d: %.2f -> P=%d: %.2f", ev.midP, mid, ev.maxP, top)
	}},
	{"V3", "n-body: CC-SAS fastest at max P", func(ev *evidence) (bool, string) {
		n := triple(ev.nb, total)
		return n[2].x < n[0].x && n[2].x < n[1].x, fmt.Sprintf("%v / %v / %v", n[0], n[1], n[2])
	}},
	{"V4", "memory: CC-SAS < SHMEM <= MP (mesh)", func(ev *evidence) (bool, string) {
		m := triple(ev.meshMax, dataBytes)
		return m[2].x < m[1].x && m[1].x <= m[0].x, fmt.Sprintf("%v / %v / %v bytes", m[0], m[1], m[2])
	}},
	{"V5", "LoC: CC-SAS smallest in every component", func(*evidence) (bool, string) { return table5Verdict() }},
	{"V6", "CC-SAS advantage erodes as remote:local ratio grows", func(ev *evidence) (bool, string) {
		first, last := fig7Ratio(ev.fig7MP[0], ev.fig7SAS[0]), fig7Ratio(ev.fig7MP[1], ev.fig7SAS[1])
		return first.x < 1 && last.x > first.x, fmt.Sprintf("CC-SAS/MP: %.2f -> %.2f", first, last)
	}},
	{"V7", "regular stencil gap well below adaptive gap", func(ev *evidence) (bool, string) {
		st, mesh := total(ev.stMP).per(total(ev.stSAS)), gap(ev.meshMax)
		return st.x < mesh.x, fmt.Sprintf("stencil %.2f vs mesh %.2f", st, mesh)
	}},
	{"V8", "PLUM remap moves less weight than identity", func(ev *evidence) (bool, string) {
		on, off := moved(ev.meshMax[0]), moved(ev.meshOff) // Figure 8's MP row
		return on.x <= off.x, fmt.Sprintf("%.0f vs %.0f", on, off)
	}},
	{"V9", "on a T3E-like MPP the winner flips to SHMEM", func(ev *evidence) (bool, string) {
		t := triple(ev.t3e, total)
		return t[1].x < t[0].x && t[1].x < t[2].x, fmt.Sprintf("%v / %v / %v", t[0], t[1], t[2])
	}},
	{"V10", "hybrid MP+SAS within 15% of pure MP on Origin", func(ev *evidence) (bool, string) {
		hyb, pure := total(ev.hyb), total(ev.meshMax[0])
		return hyb.x <= 1.15*pure.x, fmt.Sprintf("hybrid %v vs MP %v", hyb, pure)
	}},
	{"V11", "bit-identical results across models (mesh + n-body)", func(ev *evidence) (bool, string) {
		sum := func(r runner.Res) num { return read(core.F, r.M.Checksum, r) }
		m, n := triple(ev.meshMid, sum), triple(ev.nbMid, sum)
		return m[0].x == m[1].x && m[1].x == m[2].x && n[0].x == n[1].x && n[1].x == n[2].x,
			fmt.Sprintf("mesh %.9g, n-body %.9g", m[0], n[0])
	}},
	{"V12", "CG: MP reduction share grows with P", func(ev *evidence) (bool, string) {
		mid, top := syncFrac(ev.cgMidMP), syncFrac(ev.cgMaxMP)
		return top.x > mid.x, fmt.Sprintf("sync frac P=%d: %.2f -> P=%d: %.2f", ev.midP, mid, ev.maxP, top)
	}},
}

// buildVerdicts is the reproduction statement in one table: it fills the
// evidence in one Engine.Warm (on a shared engine, mostly from cache) and
// renders V0, then every verdict. V0, the evidence gate, reads a failure
// ledger of the table's own, nested in the request's, so it FAILs whenever
// any cell the table requested failed; the rows below still render, and none
// of them passes on a failed cell.
func buildVerdicts(ctx context.Context, e *runner.Engine, o Opts) *core.Table {
	t := &core.Table{
		Title:  "Verdicts — the study's falsifiable predictions, checked",
		Header: []string{"id", "claim", "verdict", "evidence"},
	}
	ctx, failed := track(ctx)
	maxP, midP, fig7P := o.Procs[len(o.Procs)-1], o.Procs[len(o.Procs)/2], fig7Procs(o)
	fig7First, fig7Last := fig7Config(fig7P, fig7Ratios[0]), fig7Config(fig7P, fig7Ratios[len(fig7Ratios)-1])
	ev := &evidence{maxP: maxP, midP: midP}
	oOff := o
	oOff.MeshW.NoRemap = true
	e.Warm(
		func() { ev.meshMax = meshApp.cells(ctx, e, machine.Default(maxP), o) },
		func() { ev.meshMid = meshApp.cells(ctx, e, machine.Default(midP), o) },
		func() { ev.nb = nbodyApp.cells(ctx, e, machine.Default(maxP), o) },
		func() { ev.nbMid = nbodyApp.cells(ctx, e, machine.Default(midP), o) },
		func() { ev.fig7MP[0] = meshApp.cell(ctx, e, core.MP, fig7First, o) },
		func() { ev.fig7SAS[0] = meshApp.cell(ctx, e, core.SAS, fig7First, o) },
		func() { ev.fig7MP[1] = meshApp.cell(ctx, e, core.MP, fig7Last, o) },
		func() { ev.fig7SAS[1] = meshApp.cell(ctx, e, core.SAS, fig7Last, o) },
		func() { ev.stMP = stencilApp.cell(ctx, e, core.MP, machine.Default(maxP), o) },
		func() { ev.stSAS = stencilApp.cell(ctx, e, core.SAS, machine.Default(maxP), o) },
		func() { ev.meshOff = meshApp.cell(ctx, e, core.MP, machine.Default(maxP), oOff) },
		func() { ev.t3e = meshApp.cells(ctx, e, machine.T3E(midP), o) },
		func() { ev.hyb = hybridApp.cell(ctx, e, core.Hybrid, machine.Default(maxP), o) },
		func() { ev.cgMaxMP = cgApp.cell(ctx, e, core.MP, machine.Default(maxP), o) },
		func() { ev.cgMidMP = cgApp.cell(ctx, e, core.MP, machine.Default(midP), o) },
	)
	add := func(id, claim string, ok bool, shown string) {
		verdict := "PASS"
		if !ok {
			verdict = "FAIL"
		}
		t.AddRow(id, claim, verdict, shown)
	}
	ok, gate := true, "all cells ok"
	if f := failed(); len(f) > 0 {
		ok, gate = false, fmt.Sprintf("%d failed cell(s), first: %s %s", len(f), f[0].Label, text(nil, f[0].Err))
	}
	add("V0", "every evidence cell computed", ok, gate)
	for _, v := range verdicts {
		ok, shown := v.check(ev)
		add(v.id, v.claim, ok, shown)
	}
	return t
}
