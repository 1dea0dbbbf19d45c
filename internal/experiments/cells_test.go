package experiments

// The cells on a real engine: a run cell must equal the direct
// application run, repeat requests must be pure cache hits, and plan keys
// must share or split cells exactly as the workload knobs demand.

import (
	"context"
	"testing"

	"o2k/internal/apps/adaptmesh"
	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/runner"
)

// TestMeshCellMatchesDirect pins the cell path to the direct RunWithPlans
// path: memoization must be semantically invisible.
func TestMeshCellMatchesDirect(t *testing.T) {
	o := QuickOpts()
	cfg := machine.Default(4)
	direct := adaptmesh.RunWithPlans(core.SAS, machine.MustNew(cfg), o.MeshW, adaptmesh.BuildPlans(o.MeshW, 4))
	cell := meshApp.cell(context.Background(), runner.New(2), core.SAS, cfg, o)
	if cell.Err != nil {
		t.Fatalf("cell failed: %v", cell.Err)
	}
	if core.CellKey(direct) != core.CellKey(cell.M) {
		t.Fatalf("cell metrics diverge from direct run:\n cell   %v\n direct %v", cell.M, direct)
	}
}

// TestCacheCorrectness re-requests the same cells and demands 100% cache
// hits with identical metrics.
func TestCacheCorrectness(t *testing.T) {
	e := runner.New(2)
	o := QuickOpts()
	cfg := machine.Default(2)
	first := nbodyApp.cells(context.Background(), e, cfg, o)
	misses := e.Report().Unique
	second := nbodyApp.cells(context.Background(), e, cfg, o)
	r := e.Report()
	if r.Unique != misses {
		t.Fatalf("second request simulated %d new cells, want 0", r.Unique-misses)
	}
	for i := range first {
		if first[i].Err != nil || second[i].Err != nil {
			t.Fatalf("cell failed: %v / %v", first[i].Err, second[i].Err)
		}
		if core.CellKey(first[i].M) != core.CellKey(second[i].M) {
			t.Fatalf("model %d: cached metrics differ from first run", i)
		}
	}
}

// TestMeshPlanKeyNormalization checks that ablation knobs the plan builder
// ignores do not split the plan cell.
func TestMeshPlanKeyNormalization(t *testing.T) {
	e := runner.New(2)
	w := adaptmesh.Small()
	if _, err := meshPlans(context.Background(), e, w, 2); err != nil {
		t.Fatal(err)
	}
	base := e.Report().Unique

	wMig := w
	wMig.SasPageMigrate = true
	meshPlans(context.Background(), e, wMig, 2)
	if got := e.Report().Unique; got != base {
		t.Fatalf("SasPageMigrate split the plan cell (%d -> %d unique)", base, got)
	}

	// NoRemap changes the plans and must get its own cell.
	wOff := w
	wOff.NoRemap = true
	meshPlans(context.Background(), e, wOff, 2)
	if got := e.Report().Unique; got != base+1 {
		t.Fatalf("NoRemap plan cell not separate (%d -> %d unique)", base, got)
	}
}
