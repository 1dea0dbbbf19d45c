package adaptmesh

import (
	"math"
	"testing"

	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/sim"
)

func TestPageMigrationPreservesResults(t *testing.T) {
	// Page migration is a placement policy: it may change time, never data.
	w := Small()
	wm := w
	wm.SasPageMigrate = true
	plans := BuildPlans(w, 8)
	a := RunWithPlans(core.SAS, mach(8), w, plans)
	b := RunWithPlans(core.SAS, mach(8), wm, plans)
	if a.Checksum != b.Checksum {
		t.Fatalf("page migration changed results: %v vs %v", a.Checksum, b.Checksum)
	}
	if b.PhaseMax[sim.PhaseRemap] <= a.PhaseMax[sim.PhaseRemap] {
		t.Fatalf("page migration charged no remap time: %v vs %v",
			b.PhaseMax[sim.PhaseRemap], a.PhaseMax[sim.PhaseRemap])
	}
}

func TestNoRemapPreservesResults(t *testing.T) {
	// Disabling PLUM remapping changes data placement and cost, not physics
	// (the partition itself is the same; only part->proc labels differ), so
	// the final digest must be identical.
	w := Small()
	woff := w
	woff.NoRemap = true
	a := RunWithPlans(core.MP, mach(4), w, BuildPlans(w, 4)).Checksum
	b := RunWithPlans(core.MP, mach(4), woff, BuildPlans(woff, 4)).Checksum
	// Different ownership => different accumulation grouping => tolerance.
	if rel := math.Abs(a-b) / math.Abs(a); rel > 1e-9 {
		t.Fatalf("remap toggle drifted results: %v vs %v", a, b)
	}
}

func TestOnT3EShmemLeads(t *testing.T) {
	// On a T3E-like machine the one-sided model should take the lead over
	// CC-SAS (emulated, expensive) and MP (heavier software).
	w := Default()
	m := machine.MustNew(machine.T3E(32))
	plans := BuildPlans(w, 32)
	var tot [3]sim.Time
	for i, model := range core.AllModels() {
		tot[i] = RunWithPlans(model, m, w, plans).Total
	}
	if !(tot[1] < tot[0] && tot[1] < tot[2]) {
		t.Fatalf("T3E winner not SHMEM: MP=%v SHMEM=%v SAS=%v", tot[0], tot[1], tot[2])
	}
}

func TestPlansStayBalanced(t *testing.T) {
	// Every cycle's partition of the Small workload over four processors
	// stays within 1.6 of the mean triangle count.
	w := Small()
	plans := BuildPlans(w, 4)
	for _, pl := range plans {
		if pl.Imbalance > 1.6 {
			t.Fatalf("partitioner left imbalance %v", pl.Imbalance)
		}
	}
}

func TestCheckpointableMetrics(t *testing.T) {
	w := Small()
	met := RunWithPlans(core.SHMEM, mach(4), w, BuildPlans(w, 4))
	// Every documented field populated.
	if met.Model != core.SHMEM || met.Procs != 4 || met.Total == 0 {
		t.Fatal("metrics incomplete")
	}
	var phaseSum sim.Time
	for _, ph := range met.PhaseMax {
		phaseSum += ph
	}
	if phaseSum == 0 {
		t.Fatal("phase maxima empty")
	}
	if met.Counters.BytesSent == 0 {
		t.Fatal("SHMEM run moved no bytes?")
	}
}

func TestScalingBeyondNodeCount(t *testing.T) {
	// 3 procs (1.5 nodes) and 65+ procs are odd shapes the machinery must
	// survive.
	w := Small()
	for _, procs := range []int{3, 5, 9} {
		plans := BuildPlans(w, procs)
		var sums [3]float64
		for i, model := range core.AllModels() {
			sums[i] = RunWithPlans(model, mach(procs), w, plans).Checksum
		}
		if sums[0] != sums[1] || sums[1] != sums[2] {
			t.Fatalf("P=%d: model divergence", procs)
		}
	}
}
