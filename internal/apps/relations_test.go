package apps_test

import (
	"testing"

	"o2k/internal/apps/adaptmesh"
	"o2k/internal/apps/barnes"
	"o2k/internal/apps/cg"
	"o2k/internal/apps/stencil"
	"o2k/internal/core"
	"o2k/internal/machine"
)

// TestMPEqualsSHMEMAtOneProc checks an app-level relation: on one processor
// there is nobody to exchange with, so each app's MP and SHMEM programs do
// the same work on the same private memory, and every metric a P = 1 run
// cannot tell apart must agree to the nanosecond and to the count. What the
// two models count differently is named here and nowhere else:
//   - Collectives: SHMEM counts each barrier as one, on top of the reductions
//     both models enter, and MP synchronizes through its messages;
//   - the stencil's DataBytes: MP keeps send and receive halo buffers, SHMEM
//     only the symmetric halo rows.
func TestMPEqualsSHMEMAtOneProc(t *testing.T) {
	mach := machine.MustNew(machine.Default(1))
	mw, bw, cw, sw := adaptmesh.Small(), barnes.Small(), cg.Small(), stencil.Small()
	mpl, bpl, cpl := adaptmesh.BuildPlans(mw, 1), barnes.BuildStructure(bw).Plans(1), cg.PlanForMesh(cw, cg.BuildMesh(cw), 1)
	apps := []struct {
		name       string
		run        func(core.Model) core.Metrics
		sameMemory bool
	}{
		{"mesh", func(m core.Model) core.Metrics { return adaptmesh.RunWithPlans(m, mach, mw, mpl) }, true},
		{"n-body", func(m core.Model) core.Metrics { return barnes.RunWithPlans(m, mach, bw, bpl) }, true},
		{"cg", func(m core.Model) core.Metrics { return cg.RunWithPlan(m, mach, cw, cpl) }, true},
		{"stencil", func(m core.Model) core.Metrics { return stencil.Run(m, mach, sw) }, false},
	}
	for _, a := range apps {
		t.Run(a.name, func(t *testing.T) {
			mp, sh := a.run(core.MP), a.run(core.SHMEM)
			if mp.Total != sh.Total || mp.PhaseMax != sh.PhaseMax {
				t.Errorf("times differ: MP %v %v, SHMEM %v %v",
					mp.Total, mp.PhaseMax, sh.Total, sh.PhaseMax)
			}
			if mp.Checksum != sh.Checksum {
				t.Errorf("checksums differ: MP %v, SHMEM %v", mp.Checksum, sh.Checksum)
			}
			if mp.MovedWeight != sh.MovedWeight {
				t.Errorf("moved weights differ: MP %v, SHMEM %v", mp.MovedWeight, sh.MovedWeight)
			}
			mc, sc := mp.Counters, sh.Counters
			mc.Collectives, sc.Collectives = 0, 0
			if mc != sc {
				t.Errorf("counters other than Collectives differ: MP %+v, SHMEM %+v", mc, sc)
			}
			if a.sameMemory && mp.DataBytes != sh.DataBytes {
				t.Errorf("data bytes differ: MP %d, SHMEM %d", mp.DataBytes, sh.DataBytes)
			}
		})
	}
}
