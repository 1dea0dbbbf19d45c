package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"o2k/internal/apps/adaptmesh"
	"o2k/internal/apps/barnes"
	"o2k/internal/apps/cg"
	"o2k/internal/apps/stencil"
	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/runner"
	"o2k/internal/sim"
)

// App is one row of the application table, and the one wiring of its
// application: a run cell is the row's key and, as its Prepare stage, the
// row's prepare. The builders and verdicts request run cells through it, the
// experiment server's cell endpoint resolves "app/model" against the table,
// and -trace-exp re-runs a cell by calling the same prepare, so a traced run
// is the definition of the cell a table printed.
type App struct {
	name   string       // the spelling front ends accept: "mesh", "nbody", …
	models []core.Model // models the app runs under, in presentation order
	label  string       // the app's word in run labels ("mesh MP P=8")
	// key is the cache key of the run under model m at cfg with o's workload.
	key func(m core.Model, cfg machine.Config, o Opts) string
	// prepare resolves that run's plans through e under ctx and returns the
	// run; a failed plan cell is its error.
	prepare func(ctx context.Context, e *runner.Engine, m core.Model, cfg machine.Config, o Opts) (run, error)
}

// run is one prepared simulation: metrics runs it as the run cell computes
// it, traced re-runs it with phase-timeline tracing and returns the group.
type run struct {
	metrics func() core.Metrics
	traced  func() *sim.Group
}

// The application table. "hybrid" is the mesh MP+SAS extension: a
// single-model app whose only model is core.Hybrid, with plans built at the
// machine's node count (one MP rank per node board).
var (
	meshApp = &App{name: "mesh", models: core.AllModels(), label: "mesh",
		key: func(m core.Model, cfg machine.Config, o Opts) string {
			return core.CellKey("mesh/run", m, cfg, o.MeshW)
		},
		prepare: func(ctx context.Context, e *runner.Engine, m core.Model, cfg machine.Config, o Opts) (run, error) {
			plans, err := meshPlans(ctx, e, o.MeshW, cfg.Procs)
			return run{
				func() core.Metrics { return adaptmesh.RunWithPlans(m, machine.MustNew(cfg), o.MeshW, plans) },
				func() *sim.Group { return adaptmesh.TraceRun(m, machine.MustNew(cfg), o.MeshW, plans) }}, err
		}}
	nbodyApp = &App{name: "nbody", models: core.AllModels(), label: "n-body",
		key: func(m core.Model, cfg machine.Config, o Opts) string {
			return core.CellKey("nbody/run", m, cfg, o.NBodyW)
		},
		prepare: func(ctx context.Context, e *runner.Engine, m core.Model, cfg machine.Config, o Opts) (run, error) {
			plans, err := nbodyPlans(ctx, e, o.NBodyW, cfg.Procs)
			return run{
				func() core.Metrics { return barnes.RunWithPlans(m, machine.MustNew(cfg), o.NBodyW, plans) },
				func() *sim.Group { return barnes.TraceRun(m, machine.MustNew(cfg), o.NBodyW, plans) }}, err
		}}
	stencilApp = &App{name: "stencil", models: core.AllModels(), label: "stencil",
		key: func(m core.Model, cfg machine.Config, o Opts) string {
			return core.CellKey("stencil/run", m, cfg, o.StencilW)
		},
		prepare: func(_ context.Context, _ *runner.Engine, m core.Model, cfg machine.Config, o Opts) (run, error) {
			return run{
				func() core.Metrics { return stencil.Run(m, machine.MustNew(cfg), o.StencilW) },
				func() *sim.Group { return stencil.TraceRun(m, machine.MustNew(cfg), o.StencilW) }}, nil
		}}
	cgApp = &App{name: "cg", models: core.AllModels(), label: "cg",
		key: func(m core.Model, cfg machine.Config, o Opts) string { return core.CellKey("cg/run", m, cfg, o.CGW) },
		prepare: func(ctx context.Context, e *runner.Engine, m core.Model, cfg machine.Config, o Opts) (run, error) {
			plan, err := cgPlan(ctx, e, o.CGW, cfg.Procs)
			return run{
				func() core.Metrics { return cg.RunWithPlan(m, machine.MustNew(cfg), o.CGW, plan) },
				func() *sim.Group { return cg.TraceRun(m, machine.MustNew(cfg), o.CGW, plan) }}, err
		}}
	hybridApp = &App{name: "hybrid", models: []core.Model{core.Hybrid}, label: "mesh",
		key: func(_ core.Model, cfg machine.Config, o Opts) string {
			return core.CellKey("mesh/hybrid", cfg, o.MeshW)
		},
		prepare: func(ctx context.Context, e *runner.Engine, _ core.Model, cfg machine.Config, o Opts) (run, error) {
			mach, err := machine.New(cfg)
			if err != nil {
				return run{}, fmt.Errorf("machine: %w", err)
			}
			plans, err := meshPlans(ctx, e, o.MeshW, mach.Nodes())
			return run{
				func() core.Metrics { return adaptmesh.RunHybridWithPlans(mach, o.MeshW, plans) },
				func() *sim.Group { return adaptmesh.TraceHybridWithPlans(mach, o.MeshW, plans) }}, err
		}}

	apps = []*App{meshApp, nbodyApp, stencilApp, cgApp, hybridApp}
)

// LookupApp resolves an application by name, in any case; on a miss it
// returns the error naming the accepted apps.
func LookupApp(name string) (*App, error) {
	name = strings.ToLower(name)
	names := make([]string, len(apps))
	for i, a := range apps {
		if a.name == name {
			return a, nil
		}
		names[i] = a.name
	}
	return nil, fmt.Errorf("unknown app %q (want %s)", name, strings.Join(names, ", "))
}

// Model resolves a model spelling (core.ParseModel) for this app, rejecting
// both unknown spellings and models the app does not run under.
func (a *App) Model(name string) (core.Model, error) {
	m, ok := core.ParseModel(name)
	if !ok {
		return 0, fmt.Errorf("unknown model %q (want mp, shmem, or sas; hybrid runs under mp+sas)", name)
	}
	if !slices.Contains(a.models, m) {
		return 0, fmt.Errorf("app %s does not run under model %v (it runs under %v)", a.name, m, a.models)
	}
	return m, nil
}

// Cell resolves the app's memoized run cell under model m on the default
// machine at procs processors, with o's workload for the app.
func (a *App) Cell(ctx context.Context, e *runner.Engine, m core.Model, procs int, o Opts) runner.Res {
	return a.cell(ctx, e, m, machine.Default(procs), o)
}

// cell resolves the memoized run cell under model m at cfg, labelled
// "<app> <model> P=<procs>".
func (a *App) cell(ctx context.Context, e *runner.Engine, m core.Model, cfg machine.Config, o Opts) runner.Res {
	met, err := cellOf(ctx, e, a.key(m, cfg, o), runLabel(a.label, m, cfg.Procs), runner.MetricsCodec,
		func(ctx context.Context) (func() core.Metrics, error) {
			r, err := a.prepare(ctx, e, m, cfg, o)
			return r.metrics, err
		})
	return runner.Res{M: met, Err: err}
}

// cells resolves a three-model app's run cells at cfg concurrently, in
// core.AllModels order.
func (a *App) cells(ctx context.Context, e *runner.Engine, cfg machine.Config, o Opts) [3]runner.Res {
	models := core.AllModels()
	return [3]runner.Res(each(e, len(models), func(i int) runner.Res { return a.cell(ctx, e, models[i], cfg, o) }))
}

// runLabel is the display label of one run, memoized or traced.
func runLabel(app string, model core.Model, procs int) string {
	return fmt.Sprintf("%s %v P=%d", app, model, procs)
}
