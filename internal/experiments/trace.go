package experiments

import (
	"context"
	"fmt"
	"strings"

	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/runner"
	"o2k/internal/sim"
)

// Phase-timeline tracing (the -trace / -trace-ascii / -phasereport path).
// A traced run is a deliberate re-simulation outside the run cells:
// EnableTrace changes the host-side cost of a run and keeps live Group
// state, neither of which belongs in the memoized/cached path whose outputs
// are byte-identity-guarded. It is the run cell's own definition, though —
// its app row's prepare, whose plans are the engine's plan cells (the ones
// the suite just resolved, or their -cache entries) — so a cell has one
// definition, and tracing costs one group per traced model however large the
// experiment suite that ran before it.

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
// optionally narrowed as e.g. "mesh/mp". Each run is prepared as its run
// cell is, its plans from e's plan cells under ctx; a failed plan cell is
// Trace's error.
func Trace(ctx context.Context, e *runner.Engine, name string, o Opts) ([]TracedRun, error) {
	app, models, err := parseTraceTarget(name)
	if err != nil {
		return nil, err
	}
	if len(o.Procs) == 0 {
		return nil, fmt.Errorf("trace %s: no processor counts configured", name)
	}
	procs := o.Procs[len(o.Procs)-1]
	cfg := machine.Default(procs)
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("trace %s: %w", name, err)
	}
	runs := make([]TracedRun, len(models))
	for i, m := range models {
		r, err := app.prepare(ctx, e, m, cfg, o)
		if err != nil {
			return nil, fmt.Errorf("trace %s: %w", name, err)
		}
		runs[i] = TracedRun{Label: runLabel(app.label, m, procs), Group: r.traced()}
	}
	return runs, nil
}
