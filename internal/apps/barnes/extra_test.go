package barnes

import (
	"slices"
	"testing"

	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/sim"
)

func TestOwnershipShiftsAcrossSteps(t *testing.T) {
	// The whole reason this is an "adaptive" application: cost-zones
	// ownership must actually change as the cluster evolves.
	w := Default()
	plans := buildPlans(w, 8)
	changed := 0
	for s := 1; s < len(plans); s++ {
		for i := 0; i < w.N; i++ {
			if plans[s].Owner[i] != plans[s-1].Owner[i] {
				changed++
			}
		}
	}
	if changed == 0 {
		t.Fatal("ownership never shifted — workload is not adaptive")
	}
}

func TestCostZonesBalanceWork(t *testing.T) {
	// After the first step, partitions use real interaction counts; the
	// per-processor work imbalance must be modest.
	w := Default()
	plans := buildPlans(w, 16)
	for s := 1; s < len(plans); s++ {
		pl := plans[s]
		work := make([]int, 16)
		total := 0
		for i, p := range pl.Owner {
			work[p] += pl.Inter[i]
			total += pl.Inter[i]
		}
		imb := float64(slices.Max(work)) * 16 / float64(total)
		if imb > 1.35 {
			t.Fatalf("step %d: interaction imbalance %.2f", s, imb)
		}
	}
}

func TestBarnesOnSMPAllModelsConverge(t *testing.T) {
	// On a flat-memory SMP the three models' times should bunch up much
	// closer than on the NUMA machine.
	w := Small()
	smp := machine.MustNew(machine.SMP(8))
	plans := buildPlans(w, 8)
	var tot [3]sim.Time
	for i, model := range core.AllModels() {
		tot[i] = RunWithPlans(model, smp, w, plans).Total
	}
	worst := float64(tot[0])
	best := float64(tot[2])
	for _, x := range tot {
		if float64(x) > worst {
			worst = float64(x)
		}
		if float64(x) < best {
			best = float64(x)
		}
	}
	if worst/best > 2.5 {
		t.Fatalf("SMP spread too wide: %v", tot)
	}
}

func TestTreePhaseScalesOnlyForSAS(t *testing.T) {
	w := Small()
	p4 := buildPlans(w, 4)
	p8 := buildPlans(w, 8)
	m4, m8 := mach(4), mach(8)
	sas4 := RunWithPlans(core.SAS, m4, w, p4).PhaseMax[sim.PhaseTree]
	sas8 := RunWithPlans(core.SAS, m8, w, p8).PhaseMax[sim.PhaseTree]
	mp4 := RunWithPlans(core.MP, m4, w, p4).PhaseMax[sim.PhaseTree]
	mp8 := RunWithPlans(core.MP, m8, w, p8).PhaseMax[sim.PhaseTree]
	if !(float64(sas8) < 0.8*float64(sas4)) {
		t.Errorf("SAS tree phase did not scale: %v -> %v", sas4, sas8)
	}
	if float64(mp8) < 0.8*float64(mp4) {
		t.Errorf("MP replicated tree phase scaled unexpectedly: %v -> %v", mp4, mp8)
	}
}
