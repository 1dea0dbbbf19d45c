package cg

import (
	"math"
	"testing"

	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/sim"
)

func mach(p int) *machine.Machine { return machine.MustNew(machine.Default(p)) }

func TestReferenceConverges(t *testing.T) {
	w := Small()
	pl := BuildPlan(w, 1)
	_, rho := ReferenceSolve(w, pl)
	// Initial rho is ||b||²; after Iters CG steps on an SPD system the
	// residual must have dropped by orders of magnitude.
	rho0 := dotRef(pl, pl.B, pl.B)
	if rho >= rho0*1e-3 {
		t.Fatalf("CG barely converged: %v -> %v", rho0, rho)
	}
	if math.IsNaN(rho) {
		t.Fatal("residual NaN")
	}
}

func TestCrossModelChecksumsIdentical(t *testing.T) {
	w := Small()
	for _, procs := range []int{1, 3, 8} {
		pl := BuildPlan(w, procs)
		m := mach(procs)
		var sums, rhos [3]float64
		for i, model := range core.AllModels() {
			met := RunWithPlan(model, m, w, pl)
			sums[i] = met.Checksum
			rhos[i] = met.Extra["residual"]
		}
		if sums[0] != sums[1] || sums[1] != sums[2] {
			t.Fatalf("P=%d: checksums differ: %v", procs, sums)
		}
		if rhos[0] != rhos[1] || rhos[1] != rhos[2] {
			t.Fatalf("P=%d: residuals differ: %v", procs, rhos)
		}
	}
}

func TestP1MatchesReferenceExactly(t *testing.T) {
	w := Small()
	pl := BuildPlan(w, 1)
	refCS, refRho := ReferenceSolve(w, pl)
	for _, model := range core.AllModels() {
		met := RunWithPlan(model, mach(1), w, pl)
		if met.Checksum != refCS || met.Extra["residual"] != refRho {
			t.Fatalf("%v: %v/%v != reference %v/%v",
				model, met.Checksum, met.Extra["residual"], refCS, refRho)
		}
	}
}

func TestParallelMatchesReferenceApprox(t *testing.T) {
	w := Small()
	pl1 := BuildPlan(w, 1)
	refCS, _ := ReferenceSolve(w, pl1)
	met := RunWithPlan(core.SAS, mach(8), w, BuildPlan(w, 8))
	if rel := math.Abs(met.Checksum-refCS) / math.Abs(refCS); rel > 1e-8 {
		t.Fatalf("P=8 drift %v (%v vs %v)", rel, met.Checksum, refCS)
	}
}

func TestDeterministicTiming(t *testing.T) {
	w := Small()
	pl := BuildPlan(w, 4)
	for _, model := range core.AllModels() {
		a := RunWithPlan(model, mach(4), w, pl).Total
		b := RunWithPlan(model, mach(4), w, pl).Total
		if a != b {
			t.Fatalf("%v nondeterministic", model)
		}
	}
}

func TestReductionLatencyDominatesAtScale(t *testing.T) {
	// CG's signature: as P grows, the two allreduces per iteration become a
	// large share of MP's time (they cannot shrink with P).
	w := Default()
	met64 := RunWithPlan(core.MP, mach(64), w, BuildPlan(w, 64))
	syncFrac := met64.PhaseFraction(sim.PhaseSync)
	if syncFrac < 0.10 {
		t.Fatalf("MP CG at P=64 spends only %.0f%% in reductions", 100*syncFrac)
	}
	// And CC-SAS's cheaper reduction tree must beat MP overall.
	sas64 := RunWithPlan(core.SAS, mach(64), w, BuildPlan(w, 64))
	if sas64.Total >= met64.Total {
		t.Fatalf("CC-SAS CG (%v) not ahead of MP (%v) at P=64", sas64.Total, met64.Total)
	}
}

func TestSpeedup(t *testing.T) {
	w := Default()
	for _, model := range core.AllModels() {
		t1 := RunWithPlan(model, mach(1), w, BuildPlan(w, 1)).Total
		t16 := RunWithPlan(model, mach(16), w, BuildPlan(w, 16)).Total
		if sp := float64(t1) / float64(t16); sp < 3 {
			t.Errorf("%v: CG speedup %.2f at P=16", model, sp)
		}
	}
}

func TestMemoryOrdering(t *testing.T) {
	w := Small()
	pl := BuildPlan(w, 8)
	m := mach(8)
	mpB := RunWithPlan(core.MP, m, w, pl).DataBytes
	saB := RunWithPlan(core.SAS, m, w, pl).DataBytes
	if saB >= mpB {
		t.Fatalf("memory ordering: sas %d !< mp %d", saB, mpB)
	}
}
