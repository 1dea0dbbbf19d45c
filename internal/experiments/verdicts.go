package experiments

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/runner"
	"o2k/internal/sim"
)

// evidence is everything the verdict checks read, filled once per table.
type evidence struct {
	maxP, midP                                  int
	meshMax, meshMid, nb, nbMid, t3e            [3]runner.Res
	fig7First, fig7Last                         [3]runner.Res // Figure 7's cells at its first and last ratio
	stMP, stSAS, hyb, cgMaxMP, cgMidMP, meshOff runner.Res    // meshOff: Figure 8's remap-off MP cell at max P
}

// verdicts are the study's falsifiable predictions, one claim per row, each
// checked by a pure function of the evidence; DESIGN §5a quotes the claims.
var verdicts = []struct {
	id, claim string
	check     func(*evidence) (ok bool, text string)
}{
	{"V1", "adaptive mesh: CC-SAS < SHMEM < MP at max P", func(ev *evidence) (bool, string) {
		m := ev.meshMax
		return m[2].M.Total < m[1].M.Total && m[1].M.Total < m[0].M.Total,
			fmt.Sprintf("P=%d: %v / %v / %v", ev.maxP, m[0].M.Total, m[1].M.Total, m[2].M.Total)
	}},
	{"V2", "MP:CC-SAS gap widens with P", func(ev *evidence) (bool, string) {
		mid, top := gap(ev.meshMid), gap(ev.meshMax)
		return top > mid, fmt.Sprintf("P=%d: %.2f -> P=%d: %.2f", ev.midP, mid, ev.maxP, top)
	}},
	{"V3", "n-body: CC-SAS fastest at max P", func(ev *evidence) (bool, string) {
		n := ev.nb
		return n[2].M.Total < n[0].M.Total && n[2].M.Total < n[1].M.Total,
			fmt.Sprintf("%v / %v / %v", n[0].M.Total, n[1].M.Total, n[2].M.Total)
	}},
	{"V4", "memory: CC-SAS < SHMEM <= MP (mesh)", func(ev *evidence) (bool, string) {
		m := ev.meshMax
		return m[2].M.DataBytes < m[1].M.DataBytes && m[1].M.DataBytes <= m[0].M.DataBytes,
			fmt.Sprintf("%d / %d / %d bytes", m[0].M.DataBytes, m[1].M.DataBytes, m[2].M.DataBytes)
	}},
	{"V5", "LoC: CC-SAS smallest in every component", func(*evidence) (bool, string) { return table5Verdict() }},
	{"V6", "CC-SAS advantage erodes as remote:local ratio grows", func(ev *evidence) (bool, string) {
		first, last := fig7Ratio(ev.fig7First), fig7Ratio(ev.fig7Last)
		return first < 1 && last > first, fmt.Sprintf("CC-SAS/MP: %.2f -> %.2f", first, last)
	}},
	{"V7", "regular stencil gap well below adaptive gap", func(ev *evidence) (bool, string) {
		st := float64(ev.stMP.M.Total) / float64(ev.stSAS.M.Total)
		return st < gap(ev.meshMax), fmt.Sprintf("stencil %.2f vs mesh %.2f", st, gap(ev.meshMax))
	}},
	{"V8", "PLUM remap moves less weight than identity", func(ev *evidence) (bool, string) {
		on, off := ev.meshMax[0].M.Extra["moved_weight"], ev.meshOff.M.Extra["moved_weight"] // Figure 8's MP row
		return !ev.meshMax[0].Failed() && !ev.meshOff.Failed() && on <= off, fmt.Sprintf("%.0f vs %.0f", on, off)
	}},
	{"V9", "on a T3E-like MPP the winner flips to SHMEM", func(ev *evidence) (bool, string) {
		t := ev.t3e
		return t[1].M.Total < t[0].M.Total && t[1].M.Total < t[2].M.Total,
			fmt.Sprintf("%v / %v / %v", t[0].M.Total, t[1].M.Total, t[2].M.Total)
	}},
	{"V10", "hybrid MP+SAS within 15% of pure MP on Origin", func(ev *evidence) (bool, string) {
		hyb, pure := ev.hyb.M.Total, ev.meshMax[0].M.Total
		return !ev.hyb.Failed() && float64(hyb) <= 1.15*float64(pure), fmt.Sprintf("hybrid %v vs MP %v", hyb, pure)
	}},
	{"V11", "bit-identical results across models (mesh + n-body)", func(ev *evidence) (bool, string) {
		m, n := ev.meshMid, ev.nbMid
		ok := m[0].M.Checksum == m[1].M.Checksum && m[1].M.Checksum == m[2].M.Checksum &&
			n[0].M.Checksum == n[1].M.Checksum && n[1].M.Checksum == n[2].M.Checksum
		return ok, fmt.Sprintf("mesh %.9g, n-body %.9g", m[0].M.Checksum, n[0].M.Checksum)
	}},
	{"V12", "CG: MP reduction share grows with P", func(ev *evidence) (bool, string) {
		mid, top := ev.cgMidMP.M.PhaseFraction(sim.PhaseSync), ev.cgMaxMP.M.PhaseFraction(sim.PhaseSync)
		return top > mid, fmt.Sprintf("sync frac P=%d: %.2f -> P=%d: %.2f", ev.midP, mid, ev.maxP, top)
	}},
}

// gap is a model triple's MP:CC-SAS time ratio.
func gap(r [3]runner.Res) float64 { return float64(r[0].M.Total) / float64(r[2].M.Total) }

// fig7Ratio is a triple's CC-SAS/MP entry as Figure 7 prints it, at three
// decimals; NaN when a cell failed, so every comparison with it fails.
func fig7Ratio(r [3]runner.Res) float64 {
	v, err := strconv.ParseFloat(fmtRatio(r[2], r[0]), 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

// buildVerdicts is the reproduction statement in one table: it fills the
// evidence in one Engine.Warm (on a shared engine, mostly from cache) and
// renders V0, then every verdict. V0, the evidence gate, reads a failure
// ledger of the table's own, nested in the request's, so it FAILs whenever
// any cell the table requested failed; the rows below still render, a failed
// cell giving zero-valued metrics.
func buildVerdicts(ctx context.Context, e *runner.Engine, o Opts) *core.Table {
	t := &core.Table{
		Title:  "Verdicts — the study's falsifiable predictions, checked",
		Header: []string{"id", "claim", "verdict", "evidence"},
	}
	ctx, failed := track(ctx)
	maxP, midP, fig7P := o.Procs[len(o.Procs)-1], o.Procs[len(o.Procs)/2], fig7Procs(o)
	ev := &evidence{maxP: maxP, midP: midP}
	wOff := o.MeshW
	wOff.NoRemap = true
	e.Warm(
		func() { ev.meshMax = MeshModels(ctx, e, machine.Default(maxP), o.MeshW) },
		func() { ev.meshMid = MeshModels(ctx, e, machine.Default(midP), o.MeshW) },
		func() { ev.nb = NBodyModels(ctx, e, machine.Default(maxP), o.NBodyW) },
		func() { ev.nbMid = NBodyModels(ctx, e, machine.Default(midP), o.NBodyW) },
		func() { ev.fig7First = MeshModels(ctx, e, fig7Config(fig7P, fig7Ratios[0]), o.MeshW) },
		func() { ev.fig7Last = MeshModels(ctx, e, fig7Config(fig7P, fig7Ratios[len(fig7Ratios)-1]), o.MeshW) },
		func() { ev.stMP = Stencil(ctx, e, core.MP, machine.Default(maxP), o.StencilW) },
		func() { ev.stSAS = Stencil(ctx, e, core.SAS, machine.Default(maxP), o.StencilW) },
		func() { ev.meshOff = Mesh(ctx, e, core.MP, machine.Default(maxP), wOff) },
		func() { ev.t3e = MeshModels(ctx, e, machine.T3E(midP), o.MeshW) },
		func() { ev.hyb = MeshHybrid(ctx, e, machine.Default(maxP), o.MeshW) },
		func() { ev.cgMaxMP = CG(ctx, e, core.MP, machine.Default(maxP), o.CGW) },
		func() { ev.cgMidMP = CG(ctx, e, core.MP, machine.Default(midP), o.CGW) },
	)
	add := func(id, claim string, ok bool, text string) {
		verdict := "PASS"
		if !ok {
			verdict = "FAIL"
		}
		t.AddRow(id, claim, verdict, text)
	}
	ok, text := true, "all cells ok"
	if f := failed(); len(f) > 0 {
		ok, text = false, fmt.Sprintf("%d failed cell(s), first: %s FAILED(%s)", len(f), f[0].Label, f[0].Err)
	}
	add("V0", "every evidence cell computed", ok, text)
	for _, v := range verdicts {
		ok, text := v.check(ev)
		add(v.id, v.claim, ok, text)
	}
	return t
}
