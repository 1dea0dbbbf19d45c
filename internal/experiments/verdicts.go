package experiments

import (
	"context"
	"fmt"

	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/runner"
	"o2k/internal/sim"
)

// buildVerdicts runs the study's falsifiable predictions (the "expected
// shape" lines of EXPERIMENTS.md) as executable checks and reports
// PASS/FAIL for each — the reproduction statement in one table. Every
// underlying simulation goes through the cell engine, so on a shared
// engine (o2kbench after -exp all, or RunAllCtx) most of its evidence is
// already cached.
//
// V0 is the evidence gate: if any cell the checks depend on failed
// (panicked, timed out, was cancelled), V0 FAILs and names the first
// failure. The per-claim verdicts below it still render — a failed cell
// contributes zero-valued metrics there — but V0 makes the degradation
// impossible to mistake for a clean FAIL or PASS.
func buildVerdicts(ctx context.Context, e *runner.Engine, o Opts) *core.Table {
	t := &core.Table{
		Title:  "Verdicts — the study's falsifiable predictions, checked",
		Header: []string{"id", "claim", "verdict", "evidence"},
	}
	maxP := o.Procs[len(o.Procs)-1]
	midP := o.Procs[len(o.Procs)/2]

	add := func(id, claim string, ok bool, evidence string) {
		verdict := "PASS"
		if !ok {
			verdict = "FAIL"
		}
		t.AddRow(id, claim, verdict, evidence)
	}

	wOff := o.MeshW
	wOff.NoRemap = true

	// Warm every independent evidence group so the unique cells run in
	// parallel; the serial checks below then assemble from cache.
	var meshMax, meshMid, nb, nbMid, t3e [3]runner.Res
	var fig7 *core.Table
	var stMP, stSAS, hyb, cgMaxMP, cgMidMP runner.Res
	var on, off MeshChars
	var onErr, offErr error
	e.Warm(
		func() { meshMax = MeshModels(ctx, e, machine.Default(maxP), o.MeshW) },
		func() { meshMid = MeshModels(ctx, e, machine.Default(midP), o.MeshW) },
		func() { nb = NBodyModels(ctx, e, machine.Default(maxP), o.NBodyW) },
		func() { nbMid = NBodyModels(ctx, e, machine.Default(midP), o.NBodyW) },
		func() { fig7 = buildFig7(ctx, e, o) },
		func() { stMP = Stencil(ctx, e, core.MP, machine.Default(maxP), o.StencilW) },
		func() { stSAS = Stencil(ctx, e, core.SAS, machine.Default(maxP), o.StencilW) },
		func() { on, onErr = MeshCharacteristics(ctx, e, o.MeshW, maxP) },
		func() { off, offErr = MeshCharacteristics(ctx, e, wOff, maxP) },
		func() { t3e = MeshModels(ctx, e, machine.T3E(midP), o.MeshW) },
		func() { hyb = MeshHybrid(ctx, e, machine.Default(maxP), o.MeshW) },
		func() { cgMaxMP = CG(ctx, e, core.MP, machine.Default(maxP), o.CGW) },
		func() { cgMidMP = CG(ctx, e, core.MP, machine.Default(midP), o.CGW) },
	)

	// V0: evidence integrity.
	var failed []string
	for _, r := range []runner.Res{
		meshMax[0], meshMax[1], meshMax[2], meshMid[0], meshMid[1], meshMid[2],
		nb[0], nb[1], nb[2], nbMid[0], nbMid[1], nbMid[2],
		t3e[0], t3e[1], t3e[2], stMP, stSAS, hyb, cgMaxMP, cgMidMP,
	} {
		if r.Err != nil {
			failed = append(failed, runner.FailLabel(r.Err))
		}
	}
	for _, err := range []error{onErr, offErr} {
		if err != nil {
			failed = append(failed, runner.FailLabel(err))
		}
	}
	if len(failed) == 0 {
		add("V0", "every evidence cell computed", true, "all cells ok")
	} else {
		add("V0", "every evidence cell computed", false,
			fmt.Sprintf("%d failed cell(s), first: %s", len(failed), failed[0]))
	}

	// V1/V2: mesh ordering and widening gap.
	add("V1", "adaptive mesh: CC-SAS < SHMEM < MP at max P",
		meshMax[2].M.Total < meshMax[1].M.Total && meshMax[1].M.Total < meshMax[0].M.Total,
		fmt.Sprintf("P=%d: %v / %v / %v", maxP, meshMax[0].M.Total, meshMax[1].M.Total, meshMax[2].M.Total))
	gapMax := float64(meshMax[0].M.Total) / float64(meshMax[2].M.Total)
	gapMid := float64(meshMid[0].M.Total) / float64(meshMid[2].M.Total)
	add("V2", "MP:CC-SAS gap widens with P",
		gapMax > gapMid,
		fmt.Sprintf("P=%d: %.2f -> P=%d: %.2f", midP, gapMid, maxP, gapMax))

	// V3: N-body winner.
	add("V3", "n-body: CC-SAS fastest at max P",
		nb[2].M.Total < nb[0].M.Total && nb[2].M.Total < nb[1].M.Total,
		fmt.Sprintf("%v / %v / %v", nb[0].M.Total, nb[1].M.Total, nb[2].M.Total))

	// V4: memory ordering.
	add("V4", "memory: CC-SAS < SHMEM <= MP (mesh)",
		meshMax[2].M.DataBytes < meshMax[1].M.DataBytes && meshMax[1].M.DataBytes <= meshMax[0].M.DataBytes,
		fmt.Sprintf("%d / %d / %d bytes", meshMax[0].M.DataBytes, meshMax[1].M.DataBytes, meshMax[2].M.DataBytes))

	// V5: programming effort.
	locOK, locEv := table5Verdict()
	add("V5", "LoC: CC-SAS smallest in every component", locOK, locEv)

	// V6: NUMA-ratio crossover.
	first := parseRatio(fig7.Rows[0][4])
	last := parseRatio(fig7.Rows[len(fig7.Rows)-1][4])
	add("V6", "CC-SAS advantage erodes as remote:local ratio grows",
		first < 1 && last > first,
		fmt.Sprintf("CC-SAS/MP: %.2f -> %.2f", first, last))

	// V7: regular control.
	stGap := float64(stMP.M.Total) / float64(stSAS.M.Total)
	add("V7", "regular stencil gap well below adaptive gap",
		stGap < gapMax,
		fmt.Sprintf("stencil %.2f vs mesh %.2f", stGap, gapMax))

	// V8: PLUM remap reduces movement.
	add("V8", "PLUM remap moves less weight than identity",
		onErr == nil && offErr == nil && on.MovedW <= off.MovedW,
		fmt.Sprintf("%.0f vs %.0f", on.MovedW, off.MovedW))

	// V9: machine-class flip.
	add("V9", "on a T3E-like MPP the winner flips to SHMEM",
		t3e[1].M.Total < t3e[0].M.Total && t3e[1].M.Total < t3e[2].M.Total,
		fmt.Sprintf("%v / %v / %v", t3e[0].M.Total, t3e[1].M.Total, t3e[2].M.Total))

	// V10: hybrid finding.
	pure := meshMax[0].M.Total
	add("V10", "hybrid MP+SAS within 15% of pure MP on Origin",
		!hyb.Failed() && float64(hyb.M.Total) <= 1.15*float64(pure),
		fmt.Sprintf("hybrid %v vs MP %v", hyb.M.Total, pure))

	// V11: cross-model result identity.
	okID := meshMid[0].M.Checksum == meshMid[1].M.Checksum && meshMid[1].M.Checksum == meshMid[2].M.Checksum
	okID = okID && nbMid[0].M.Checksum == nbMid[1].M.Checksum && nbMid[1].M.Checksum == nbMid[2].M.Checksum
	add("V11", "bit-identical results across models (mesh + n-body)",
		okID, fmt.Sprintf("mesh %.9g, n-body %.9g", meshMid[0].M.Checksum, nbMid[0].M.Checksum))

	// V12: CG reduction-latency signature.
	add("V12", "CG: MP reduction share grows with P",
		cgMaxMP.M.PhaseFraction(sim.PhaseSync) > cgMidMP.M.PhaseFraction(sim.PhaseSync),
		fmt.Sprintf("sync frac P=%d: %.2f -> P=%d: %.2f",
			midP, cgMidMP.M.PhaseFraction(sim.PhaseSync), maxP, cgMaxMP.M.PhaseFraction(sim.PhaseSync)))

	return t
}

func parseRatio(s string) float64 {
	var v float64
	fmt.Sscanf(s, "%f", &v)
	return v
}
