package adaptmesh

import (
	"math"
	"testing"

	"o2k/internal/core"
	"o2k/internal/sim"
)

// The auxiliary fields are linear in the coordinates, and midpoint
// interpolation is exact for linear functions — so after any number of
// adaptations, migrations, and interpolations, each aux field must still
// equal auxInit at every used vertex. The checksum difference between a run
// with and without aux fields therefore equals the analytic sum of auxInit
// over the final owned vertices.
func TestAuxFieldsExactlyLinear(t *testing.T) {
	w := Small()
	w0 := w
	w0.AuxFields = 0
	plans := BuildPlans(w, 4) // identical structure for both workloads
	for _, model := range core.AllModels() {
		with := RunWithPlans(model, mach(4), w, plans).Checksum
		without := RunWithPlans(model, mach(4), w0, plans).Checksum
		last := plans[len(plans)-1]
		want := 0.0
		for v := 0; v < last.NV; v++ {
			if last.M.VertUsed(int32(v)) {
				for k := 0; k < w.AuxFields; k++ {
					want += auxInit(k, last.M.VX[v], last.M.VY[v])
				}
			}
		}
		got := with - without
		if rel := math.Abs(got-want) / math.Abs(want); rel > 1e-12 {
			t.Fatalf("%v: aux contribution %v, analytic %v (rel %v)", model, got, want, rel)
		}
	}
}

func TestAuxFieldsIncreaseRemapCost(t *testing.T) {
	// The whole point: carrying real per-element state makes migration
	// expensive, and only for the models that migrate.
	w := Default()
	w0 := w
	w0.AuxFields = 0
	plans := BuildPlans(w, 16)
	m := mach(16)
	mpWith := RunWithPlans(core.MP, m, w, plans).PhaseMax[sim.PhaseRemap]
	mpWithout := RunWithPlans(core.MP, m, w0, plans).PhaseMax[sim.PhaseRemap]
	if mpWith <= mpWithout {
		t.Fatalf("aux fields did not raise MP remap: %v vs %v", mpWith, mpWithout)
	}
	sasWith := RunWithPlans(core.SAS, m, w, plans).PhaseMax[sim.PhaseRemap]
	// SAS migrates nothing: its remap grows only by the interpolation work.
	if float64(sasWith) > 0.5*float64(mpWith) {
		t.Fatalf("SAS remap (%v) should stay far below MP's (%v)", sasWith, mpWith)
	}
}

func TestZeroAuxFieldsStillValid(t *testing.T) {
	w := Small()
	w.AuxFields = 0
	ref := ReferenceChecksum(w)
	got := RunWithPlans(core.SHMEM, mach(2), w, BuildPlans(w, 2)).Checksum
	if math.Abs(got-ref) > 1e-9*math.Abs(ref) {
		t.Fatalf("AuxFields=0 drifted: %v vs %v", got, ref)
	}
}
