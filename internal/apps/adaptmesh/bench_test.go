package adaptmesh

import (
	"testing"

	"o2k/internal/core"
	"o2k/internal/machine"
)

// BenchmarkRunWithPlans times one run of each model at P = 512 on the
// default workload, as the benchmark ledger's apps.adaptmesh.run_ms_p512
// does: the plans are built once, outside the timer, and each run gets a
// fresh machine. At this P, host work per processor that grows with P (an
// exchange loop over all processors rather than the peers) dominates.
func BenchmarkRunWithPlans(b *testing.B) {
	const procs = 512
	w := Default()
	plans := BuildStructure(w).Plans(procs, w.NoRemap)
	for _, c := range []struct {
		slug  string
		model core.Model
	}{{"mp", core.MP}, {"shmem", core.SHMEM}, {"sas", core.SAS}} {
		b.Run(c.slug+"/P512", func(b *testing.B) {
			for b.Loop() {
				RunWithPlans(c.model, machine.MustNew(machine.Default(procs)), w, plans)
			}
		})
	}
}
