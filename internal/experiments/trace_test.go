package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"o2k/internal/core"
	"o2k/internal/runner"
	"o2k/internal/sim"
)

func TestParseTraceTarget(t *testing.T) {
	cases := []struct {
		in     string
		app    string
		models []core.Model
	}{
		{"mesh", "mesh", core.AllModels()},
		{"nbody", "nbody", core.AllModels()},
		{"MESH", "mesh", core.AllModels()},
		{"mesh/mp", "mesh", []core.Model{core.MP}},
		{"nbody/shmem", "nbody", []core.Model{core.SHMEM}},
		{"mesh/sas", "mesh", []core.Model{core.SAS}},
		{"mesh/cc-sas", "mesh", []core.Model{core.SAS}},
		{"mesh/CCSAS", "mesh", []core.Model{core.SAS}},
		{"stencil", "stencil", core.AllModels()},
		{"stencil/mp", "stencil", []core.Model{core.MP}},
		{"cg", "cg", core.AllModels()},
		{"CG/shmem", "cg", []core.Model{core.SHMEM}},
		{"hybrid", "hybrid", []core.Model{core.Hybrid}},
		{"hybrid/mp+sas", "hybrid", []core.Model{core.Hybrid}},
	}
	for _, tc := range cases {
		app, models, err := parseTraceTarget(tc.in)
		if err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		if app.name != tc.app || len(models) != len(tc.models) {
			t.Errorf("%q: parsed %q/%v, want %q/%v", tc.in, app.name, models, tc.app, tc.models)
			continue
		}
		for i := range tc.models {
			if models[i] != tc.models[i] {
				t.Errorf("%q: model[%d] = %v, want %v", tc.in, i, models[i], tc.models[i])
			}
		}
	}
}

func TestCheckTraceTargetRejects(t *testing.T) {
	for _, bad := range []string{"", "warp", "mesh/openmp", "nbody/", "mesh/mp/extra", "hybrid/mp", "mesh/mp+sas", "stencil/openmp"} {
		if err := CheckTraceTarget(bad); err == nil {
			t.Errorf("%q: accepted, want error", bad)
		}
	}
	if err := CheckTraceTarget("nbody/mp"); err != nil {
		t.Errorf("nbody/mp rejected: %v", err)
	}
}

func TestTraceUsesLargestProcCount(t *testing.T) {
	o := QuickOpts() // Procs 1, 4, 16
	runs, err := Trace(context.Background(), runner.New(1), "mesh/mp", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(runs))
	}
	if runs[0].Group.Size() != 16 {
		t.Fatalf("traced at P=%d, want the largest configured count 16", runs[0].Group.Size())
	}
	if runs[0].Label != "mesh MP P=16" {
		t.Fatalf("label = %q", runs[0].Label)
	}
}

func TestTraceErrors(t *testing.T) {
	if _, err := Trace(context.Background(), runner.New(1), "bogus", QuickOpts()); err == nil {
		t.Error("bogus target accepted")
	}
	if _, err := Trace(context.Background(), runner.New(1), "mesh", Opts{}); err == nil {
		t.Error("empty Procs accepted")
	}
}

// TestGoldenASCIITimeline pins the -trace-ascii rendering of one fully
// deterministic traced run. Regenerate with O2K_UPDATE_GOLDEN=1 after a
// deliberate model change and review the diff like any other golden.
func TestGoldenASCIITimeline(t *testing.T) {
	o := QuickOpts()
	o.Procs = []int{4}
	runs, err := Trace(context.Background(), runner.New(1), "mesh/mp", o)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range runs {
		fmt.Fprintf(&b, "=== %s ===\n%s", r.Label, sim.RenderTimeline(r.Group, 100))
	}
	got := b.String()

	golden := filepath.Join("testdata", "timeline.golden")
	if os.Getenv("O2K_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with O2K_UPDATE_GOLDEN=1 to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("ASCII timeline drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}
}

// TestTraceIsTheRunCell re-runs every (app, model) of the table traced, as
// -trace-exp does, and reads the group as apps.Collect reads a run cell's:
// a traced run is the cell's own definition, so every number matches but
// CohMisses, to which Collect adds the space's coherence evictions.
func TestTraceIsTheRunCell(t *testing.T) {
	o := QuickOpts()
	o.Procs = []int{4}
	e := runner.New(2)
	for _, a := range apps {
		for _, m := range a.models {
			name := a.name + "/" + m.String()
			t.Run(name, func(t *testing.T) {
				runs, err := Trace(bg, e, name, o)
				if err != nil {
					t.Fatal(err)
				}
				res := a.Cell(bg, e, m, 4, o)
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				g, want := runs[0].Group, res.M
				got := want
				got.Total, got.PhaseMax, got.PhaseAvg, got.Counters = g.MaxTime(), g.MaxPhaseTime(), g.AvgPhaseTime(), g.TotalCounters()
				if got.Counters.CohMisses > want.Counters.CohMisses {
					t.Errorf("traced CohMisses %d exceed the cell's %d", got.Counters.CohMisses, want.Counters.CohMisses)
				}
				got.Counters.CohMisses = want.Counters.CohMisses
				if diff := diffMetrics(got, want); diff != "" {
					t.Errorf("the traced run is not the run cell:%s", diff)
				}
			})
		}
	}
}
