package numa_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"o2k/internal/apps/barnes"
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
// paths — the inline MRU probes of cursors and batch helpers, ChargeLoop's
// walk, footprint rule and footprint memo (every answer of which is audited),
// the span walk, the n-body force phases' load footprints (every charge of
// which is audited), the sharer directory — as on the reference model of
// ref.go, which charges every access through chargeRef and merges without a
// directory. ref_test.go checks the same equality on seeded traces; this is
// the check that the applications use the fast paths within what the traces
// cover.
//
// The Small cells stay in a regime two Default-size cells leave. The Small
// n-body cells have 40 leaf lines each, and every one is alone in its cache
// set; in n-body SHMEM P=16 the symmetric blocks put the x, y and m lines of a
// leaf in one set, two or three lines of a force phase share a set in every
// phase, and a third of the loads hit a non-MRU way. In mesh CC-SAS P=16 the
// solve's footprint rule meets, at every sweep, the ghost lines the barrier's
// merge invalidated, and misses them remotely, and declines the sweeps whose
// lines share a set.
func TestWholeCellsMatchReference(t *testing.T) {
	large := []struct {
		app   string
		model core.Model
	}{{"nbody", core.SHMEM}, {"mesh", core.SAS}}
	cells := func(t *testing.T, visit func(t *testing.T, cell string, m core.Metrics)) {
		smallCells(t, func(t *testing.T, cell string, _ core.Model, _ int, m core.Metrics) { visit(t, cell, m) })
		for _, c := range large {
			cell := fmt.Sprintf("%s/%v/P=16 at Default size", c.app, c.model)
			t.Run(cell, func(t *testing.T) {
				if testing.Short() {
					t.Skip("a full-size cell on the reference model; skipped with -short")
				}
				visit(t, cell, defaultCell(t, c.app, c.model, 16))
			})
		}
	}
	numa.AuditFootprints(t)
	fast := map[string]core.Metrics{}
	cells(t, func(_ *testing.T, cell string, m core.Metrics) { fast[cell] = m })
	numa.SetRefModel(t)
	cells(t, func(t *testing.T, cell string, ref core.Metrics) {
		if got := fast[cell]; !reflect.DeepEqual(got, ref) {
			t.Errorf("the fast path and the reference model disagree:\nfast %+v\n ref %+v", got, ref)
		}
	})
}

// defaultCell runs app's cell under model on procs processors at Default size
// on a fresh engine.
func defaultCell(t *testing.T, app string, model core.Model, procs int) core.Metrics {
	t.Helper()
	a, err := experiments.LookupApp(app)
	if err != nil {
		t.Fatal(err)
	}
	res := a.Cell(context.Background(), runner.New(1), model, procs, experiments.DefaultOpts())
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res.M
}

// The mesh solve's sweeps and cg's kernels are charged by ChargeLoop's
// footprint rule, not access by access, when their lines sit in distinct cache
// sets — most of the time at Default size, ghost lines and all. At P = 16
// every flux sweep and vertex update of mesh MP and SHMEM takes the rule and
// CC-SAS declines a few; in cg the rest have at most four lines in a set. The
// floor is 85 % for each app and model. Each call repeats one before it (a
// solve sweep, a CG iteration), so the memo answers every call but the first
// of each key.
func TestMeshSolveTakesTheFootprintRule(t *testing.T) {
	if testing.Short() {
		t.Skip("six full-size cells; skipped with -short")
	}
	for _, app := range []struct{ name, prefix string }{{"mesh", ""}, {"cg", "cg/"}} {
		for _, model := range []core.Model{core.MP, core.SHMEM, core.SAS} {
			t.Run(app.prefix+model.String(), func(t *testing.T) {
				fc := numa.CountFootprints(t)
				defaultCell(t, app.name, model, 16)
				calls, rule, hits, keys := fc.Calls.Load(), fc.Rule.Load(), fc.Hits.Load(), fc.Keys()
				t.Logf("the footprint rule charged %d of %d index calls; the memo answered %d over %d keys", rule, calls, hits, keys)
				if calls == 0 || rule*100 < calls*85 {
					t.Errorf("the footprint rule charged %d of %d index calls, want at least 85 %%", rule, calls)
				}
				if hits != calls-keys {
					t.Errorf("the memo answered %d of %d calls over %d keys, want %d", hits, calls, keys, calls-keys)
				}
			})
		}
	}
	// Each n-body force phase is one ChargeLoads call per processor and step,
	// and at Default size the rule takes every one: no cache set receives more
	// than cacheWays of a phase's lines. The histogram is how full the fullest
	// set of each phase is.
	for _, model := range []core.Model{core.MP, core.SHMEM, core.SAS} {
		t.Run("nbody/"+model.String(), func(t *testing.T) {
			lc := numa.CountLoadCharges(t)
			defaultCell(t, "nbody", model, 16)
			calls, rule := lc.Calls.Load(), lc.Rule.Load()
			var fullest []int64
			for n := range lc.Fullest {
				fullest = append(fullest, lc.Fullest[n].Load())
			}
			t.Logf("the rule charged %d of %d force phases; phases by lines in their fullest set (0–7): %v", rule, calls, fullest)
			if want := int64(16 * barnes.Default().Steps); calls != want || rule != calls {
				t.Errorf("the rule charged %d of %d force phases, want all of %d", rule, calls, want)
			}
		})
	}
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
