package experiments

import (
	"fmt"
	"strings"

	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/sim"
)

// Phase-timeline tracing (the -trace / -trace-ascii / -phasereport path).
// A traced run is a deliberate re-simulation outside the cell engine:
// EnableTrace changes the host-side cost of a run and keeps live Group
// state, neither of which belongs in the memoized/cached path whose outputs
// are byte-identity-guarded. Exactly one plan set and one group per traced
// model is paid, so tracing costs O(one cell) however large the experiment
// suite that ran before it.

// TracedRun couples one phase-traced application run with its display
// label ("mesh MP P=8").
type TracedRun struct {
	Label string
	Group *sim.Group
}

// parseTraceTarget resolves a -trace-exp argument, "app" or "app/model"
// (case-insensitive), into the app and the models to trace.
func parseTraceTarget(name string) (*App, []core.Model, error) {
	appName, modelSel, narrowed := strings.Cut(strings.ToLower(name), "/")
	app, err := LookupApp(appName)
	if err != nil {
		return nil, nil, fmt.Errorf("unknown trace target %q: %w", name, err)
	}
	if !narrowed {
		return app, app.models, nil
	}
	m, err := app.Model(modelSel)
	if err != nil {
		return nil, nil, fmt.Errorf("trace target %q: %w", name, err)
	}
	return app, []core.Model{m}, nil
}

// CheckTraceTarget validates a -trace-exp argument without running
// anything, so a typo fails fast instead of after the experiment suite.
func CheckTraceTarget(name string) error {
	_, _, err := parseTraceTarget(name)
	return err
}

// Trace re-runs the named application with phase-timeline tracing enabled
// at the largest processor count of o and returns one traced group per
// selected model, in the app's model order. name is an app of the table,
// optionally narrowed as e.g. "mesh/mp".
func Trace(name string, o Opts) ([]TracedRun, error) {
	app, models, err := parseTraceTarget(name)
	if err != nil {
		return nil, err
	}
	if len(o.Procs) == 0 {
		return nil, fmt.Errorf("trace %s: no processor counts configured", name)
	}
	procs := o.Procs[len(o.Procs)-1]
	mach, err := machine.New(machine.Default(procs))
	if err != nil {
		return nil, fmt.Errorf("trace %s: %w", name, err)
	}
	traced := app.trace(mach, o)
	runs := make([]TracedRun, len(models))
	for i, m := range models {
		runs[i] = TracedRun{Label: runLabel(app.label, m, procs), Group: traced(m)}
	}
	return runs, nil
}
