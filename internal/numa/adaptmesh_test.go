package numa_test

import (
	"reflect"
	"testing"

	"o2k/internal/apps/adaptmesh"
	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/numa"
)

// At Small every array of the mesh application sits below the mapping
// threshold. With the threshold at zero every one of them lies in a mapping
// (pointer-free elements only), so the whole application — remap, halo
// exchange, solver, Release between cycles, Close at the end — runs on mapped
// memory: the metrics must not notice, and the run must leave nothing mapped.
func TestMeshMetricsIdenticalWithEveryArrayMapped(t *testing.T) {
	w := adaptmesh.Small()
	mach := machine.MustNew(machine.Default(8))
	plans := adaptmesh.BuildPlans(w, 8)
	for _, model := range []core.Model{core.MP, core.SHMEM, core.SAS} {
		t.Run(model.String(), func(t *testing.T) {
			numa.AwaitNoMappings(t)
			want := adaptmesh.RunWithPlans(model, mach, w, plans)
			if n := numa.LiveMappings(); n != 0 {
				t.Fatalf("Small mapped %d arrays at the default threshold", n)
			}
			numa.SetMapMinBytes(t, 0)
			mapped := numa.CountMappings(t)
			got := adaptmesh.RunWithPlans(model, mach, w, plans)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("metrics differ on mapped memory:\n got %+v\nwant %+v", got, want)
			}
			if mapped.Load() == 0 {
				t.Skip("no demand-zero mappings on this host")
			}
			t.Logf("%d mappings made", mapped.Load())
			if n := numa.LiveMappings(); n != 0 {
				t.Errorf("%d of them still live after the run", n)
			}
		})
	}
}

// The CC-SAS mesh run keeps the sharer directory sound through remap, page
// migration, per-cycle contribution buffers and their Release: TestMain's
// checkDirectory audit runs at every barrier of the run, so at least once in
// each adaptation cycle.
func TestMeshSASDirectoryAudited(t *testing.T) {
	w := adaptmesh.Small()
	mach := machine.MustNew(machine.Default(8))
	plans := adaptmesh.BuildPlans(w, 8)
	before := numa.DirectoryAudits()
	adaptmesh.RunWithPlans(core.SAS, mach, w, plans)
	n := numa.DirectoryAudits() - before
	t.Logf("%d merges audited in %d cycles", n, len(plans))
	if n < int64(len(plans)) {
		t.Error("too few audits")
	}
}
