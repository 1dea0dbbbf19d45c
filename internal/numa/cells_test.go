package numa_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"o2k/internal/core"
	"o2k/internal/experiments"
	"o2k/internal/numa"
	"o2k/internal/runner"
)

// smallCells runs the 38 cells experiments/testdata/small_cells.json pins —
// the four applications under the three models at P = 1, 8 and 64 and the
// mesh hybrid at 8 and 64, on the Small workloads — each on a fresh engine, so
// nothing is served from a memo, and hands every result to visit.
func smallCells(t *testing.T, visit func(t *testing.T, cell string, model core.Model, procs int, m core.Metrics)) {
	o := experiments.QuickOpts()
	for _, name := range []string{"mesh", "nbody", "stencil", "cg", "hybrid"} {
		app, err := experiments.LookupApp(name)
		if err != nil {
			t.Fatal(err)
		}
		models, counts := core.AllModels(), []int{1, 8, 64}
		if name == "hybrid" {
			models, counts = []core.Model{core.Hybrid}, []int{8, 64} // its unit is a two-processor node
		}
		for _, model := range models {
			for _, procs := range counts {
				cell := fmt.Sprintf("%s/%v/P=%d", name, model, procs)
				t.Run(cell, func(t *testing.T) {
					res := app.Cell(context.Background(), runner.New(1), model, procs, o)
					if res.Err != nil {
						t.Fatal(res.Err)
					}
					visit(t, cell, model, procs, res.M)
				})
			}
		}
	}
}

// The whole-cell differential: every pinned cell, run as a program through
// the one app harness, reports the same complete Metrics on the optimized
// paths — the inline MRU probes of cursors and batch helpers, arms, the span
// walk, ReplayLines, the sharer directory — as on the reference model of
// ref.go, which charges every access through chargeRef and merges without a
// directory. ref_test.go checks the same equality on seeded traces; this is
// the check that the applications use the fast paths within what the traces
// cover.
//
// The Small n-body cells have 40 leaf lines each, and every one is alone in
// its cache set. One Default-size cell is the regime they never reach: in
// n-body SHMEM P=16 a quarter of the replayed entries are pinned and a third
// hit a non-MRU way (3.4 M of 10.8 M).
func TestWholeCellsMatchReference(t *testing.T) {
	const large = "nbody/SHMEM/P=16 at Default size"
	cells := func(t *testing.T, visit func(t *testing.T, cell string, m core.Metrics)) {
		smallCells(t, func(t *testing.T, cell string, _ core.Model, _ int, m core.Metrics) { visit(t, cell, m) })
		t.Run(large, func(t *testing.T) {
			if testing.Short() {
				t.Skip("a full-size cell on the reference model; skipped with -short")
			}
			app, err := experiments.LookupApp("nbody")
			if err != nil {
				t.Fatal(err)
			}
			res := app.Cell(context.Background(), runner.New(1), core.SHMEM, 16, experiments.DefaultOpts())
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			visit(t, large, res.M)
		})
	}
	fast := map[string]core.Metrics{}
	cells(t, func(_ *testing.T, cell string, m core.Metrics) { fast[cell] = m })
	numa.SetRefModel(t)
	cells(t, func(t *testing.T, cell string, ref core.Metrics) {
		if got := fast[cell]; !reflect.DeepEqual(got, ref) {
			t.Errorf("the fast path and the reference model disagree:\nfast %+v\n ref %+v", got, ref)
		}
	})
}

// Every application reads its run out through the one harness, so every cell
// reports the coherence evictions its space counted — coherent shared data at
// P >= 8 always has some, private data (MP, the hybrid) and a single
// processor never — and closes its space: with every array on mapped memory
// nothing is left mapped when the cell returns, no collection awaited.
func TestCellsReportCoherenceAndCloseTheirSpace(t *testing.T) {
	numa.AwaitNoMappings(t)
	numa.SetMapMinBytes(t, 0)
	mapped := numa.CountMappings(t)
	smallCells(t, func(t *testing.T, _ string, model core.Model, procs int, m core.Metrics) {
		switch coh := m.Counters.CohMisses; {
		case model == core.SAS && procs >= 8 && coh == 0:
			t.Error("a CC-SAS run on 8 or more processors reports no coherence eviction")
		case (model == core.MP || model == core.Hybrid || procs == 1) && coh != 0:
			t.Errorf("%d coherence evictions without coherent sharing", coh)
		}
		if n := numa.LiveMappings(); n != 0 && mapped.Load() > 0 {
			t.Errorf("%d mappings still live when the cell returned", n)
		}
	})
	if mapped.Load() == 0 {
		t.Skip("no demand-zero mappings on this host")
	}
}
