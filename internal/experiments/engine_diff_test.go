package experiments

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"o2k/internal/apps/adaptmesh"
	"o2k/internal/apps/barnes"
	"o2k/internal/apps/cg"
	"o2k/internal/apps/stencil"
	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/runner"
	"o2k/internal/sim"
)

// Differential engine suite at the application and suite level: every
// registered application under every programming model must produce the
// same Metrics — totals, per-phase critical paths and averages, counters,
// data sizes, checksums — under the event scheduler and the goroutine
// reference gang, and the whole quick suite must render the same bytes.

// underEngine runs f with the named engine installed as the default,
// restoring the previous default afterwards.
func underEngine(t *testing.T, name string, f func()) {
	t.Helper()
	e, err := sim.EngineByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prev := sim.SetDefaultEngine(e)
	defer sim.SetDefaultEngine(prev)
	f()
}

func TestEnginesAgreeOnEveryAppAndModel(t *testing.T) {
	const procs = 4
	mach := func() *machine.Machine { return machine.MustNew(machine.Default(procs)) }
	cases := []struct {
		name string
		run  func(m core.Model) core.Metrics
	}{
		{"mesh", func(m core.Model) core.Metrics {
			return adaptmesh.Run(m, mach(), adaptmesh.Small())
		}},
		{"nbody", func(m core.Model) core.Metrics {
			return barnes.Run(m, mach(), barnes.Small())
		}},
		{"stencil", func(m core.Model) core.Metrics {
			return stencil.Run(m, mach(), stencil.Small())
		}},
		{"cg", func(m core.Model) core.Metrics {
			return cg.Run(m, mach(), cg.Small())
		}},
	}
	models := append(core.AllModels(), core.Hybrid)
	for _, tc := range cases {
		for _, model := range models {
			if model == core.Hybrid && tc.name != "mesh" {
				continue // only the mesh has the hybrid extension
			}
			run := tc.run
			if model == core.Hybrid {
				run = func(core.Model) core.Metrics {
					return adaptmesh.RunHybrid(mach(), adaptmesh.Small())
				}
			}
			t.Run(tc.name+"/"+model.String(), func(t *testing.T) {
				var byEngine []core.Metrics
				for _, en := range sim.EngineNames() {
					underEngine(t, en, func() {
						byEngine = append(byEngine, run(model))
					})
				}
				for i := 1; i < len(byEngine); i++ {
					if !reflect.DeepEqual(byEngine[i], byEngine[0]) {
						t.Fatalf("engines %q and %q disagree:\n%+v\n%+v",
							sim.EngineNames()[i], sim.EngineNames()[0], byEngine[i], byEngine[0])
					}
				}
			})
		}
	}
}

// TestEnginesAgreeOnQuickSuiteBytes is the end-to-end form of the contract:
// the full quick suite, simulated from scratch on a fresh cell engine per
// run (so nothing is served from a cache warmed by the other engine),
// renders byte-identically.
func TestEnginesAgreeOnQuickSuiteBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite once per engine")
	}
	o := QuickOpts()
	outputs := map[string]string{}
	for _, en := range sim.EngineNames() {
		underEngine(t, en, func() {
			outputs[en] = Render(RunAllCtx(bg, runner.New(4), o))
		})
	}
	names := sim.EngineNames()
	for _, en := range names[1:] {
		if outputs[en] != outputs[names[0]] {
			t.Fatalf("quick-suite bytes differ between engines %q and %q", en, names[0])
		}
	}
}

// TestEnginesAgreeOnPoisonedCell: failure semantics are part of the engine
// contract too — a pre-failed cell must render the same FAILED(...) bytes
// whichever engine computes the healthy remainder of the table.
func TestEnginesAgreeOnPoisonedCell(t *testing.T) {
	o := QuickOpts()
	maxP := o.Procs[len(o.Procs)-1]
	outputs := map[string]string{}
	for _, en := range sim.EngineNames() {
		underEngine(t, en, func() {
			e := runner.New(2)
			poisonMeshMP(e, o, maxP, errors.New("injected fault"))
			tabs, err := RunOnCtx(bg, e, "mesh-speedup", o)
			if err != nil {
				t.Fatal(err)
			}
			outputs[en] = Render(tabs)
		})
	}
	names := sim.EngineNames()
	first := outputs[names[0]]
	if !strings.Contains(first, "FAILED(") {
		t.Fatalf("poisoned table lacks a FAILED entry:\n%s", first)
	}
	for _, en := range names[1:] {
		if outputs[en] != first {
			t.Fatalf("poisoned-cell rendering differs between engines %q and %q:\n%s\n%s",
				en, names[0], outputs[en], first)
		}
	}
}
