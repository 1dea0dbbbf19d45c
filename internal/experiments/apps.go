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

// App is one row of the application table: everything a front end needs to
// turn "app/model" into a simulation. The table is the only place that
// knows which applications exist — the experiment server's cell endpoint and
// the -trace-exp flag both ask it.
type App struct {
	name   string       // the spelling front ends accept: "mesh", "nbody", …
	models []core.Model // models the app runs under, in presentation order
	label  string       // the app's word in run labels ("mesh MP P=8")
	// run resolves the memoized run cell at cfg with o's workload.
	run func(ctx context.Context, e *runner.Engine, m core.Model, cfg machine.Config, o Opts) runner.Res
	// trace prepares a phase-traced re-run on mach: resolve the run's plans
	// through e — the cells the suite resolves, so a traced run has the
	// same plans as the memoized one — then one traced group per model
	// asked of the returned function.
	trace func(ctx context.Context, e *runner.Engine, mach *machine.Machine, o Opts) (func(core.Model) *sim.Group, error)
}

// apps is the application table. "hybrid" is the mesh MP+SAS extension: a
// single-model app whose only model is core.Hybrid.
var apps = []App{
	{name: "mesh", models: core.AllModels(), label: "mesh",
		run: func(ctx context.Context, e *runner.Engine, m core.Model, cfg machine.Config, o Opts) runner.Res {
			return Mesh(ctx, e, m, cfg, o.MeshW)
		},
		trace: func(ctx context.Context, e *runner.Engine, mach *machine.Machine, o Opts) (func(core.Model) *sim.Group, error) {
			plans, err := MeshPlans(ctx, e, o.MeshW, mach.Procs())
			return func(m core.Model) *sim.Group { return adaptmesh.TraceRun(m, mach, o.MeshW, plans) }, err
		}},
	{name: "nbody", models: core.AllModels(), label: "n-body",
		run: func(ctx context.Context, e *runner.Engine, m core.Model, cfg machine.Config, o Opts) runner.Res {
			return NBody(ctx, e, m, cfg, o.NBodyW)
		},
		trace: func(ctx context.Context, e *runner.Engine, mach *machine.Machine, o Opts) (func(core.Model) *sim.Group, error) {
			plans, err := NBodyPlans(ctx, e, o.NBodyW, mach.Procs())
			return func(m core.Model) *sim.Group { return barnes.TraceRun(m, mach, o.NBodyW, plans) }, err
		}},
	{name: "stencil", models: core.AllModels(), label: "stencil",
		run: func(ctx context.Context, e *runner.Engine, m core.Model, cfg machine.Config, o Opts) runner.Res {
			return Stencil(ctx, e, m, cfg, o.StencilW)
		},
		trace: func(_ context.Context, _ *runner.Engine, mach *machine.Machine, o Opts) (func(core.Model) *sim.Group, error) {
			return func(m core.Model) *sim.Group { return stencil.TraceRun(m, mach, o.StencilW) }, nil
		}},
	{name: "cg", models: core.AllModels(), label: "cg",
		run: func(ctx context.Context, e *runner.Engine, m core.Model, cfg machine.Config, o Opts) runner.Res {
			return CG(ctx, e, m, cfg, o.CGW)
		},
		trace: func(ctx context.Context, e *runner.Engine, mach *machine.Machine, o Opts) (func(core.Model) *sim.Group, error) {
			plan, err := CGPlan(ctx, e, o.CGW, mach.Procs())
			return func(m core.Model) *sim.Group { return cg.TraceRun(m, mach, o.CGW, plan) }, err
		}},
	{name: "hybrid", models: []core.Model{core.Hybrid}, label: "mesh",
		run: func(ctx context.Context, e *runner.Engine, _ core.Model, cfg machine.Config, o Opts) runner.Res {
			return MeshHybrid(ctx, e, cfg, o.MeshW)
		},
		trace: func(ctx context.Context, e *runner.Engine, mach *machine.Machine, o Opts) (func(core.Model) *sim.Group, error) {
			plans, err := MeshPlans(ctx, e, o.MeshW, mach.Nodes())
			return func(core.Model) *sim.Group { return adaptmesh.TraceHybridWithPlans(mach, o.MeshW, plans) }, err
		}},
}

// LookupApp resolves an application by name; on a miss it returns the error
// naming the accepted apps.
func LookupApp(name string) (*App, error) {
	for i := range apps {
		if apps[i].name == name {
			return &apps[i], nil
		}
	}
	names := make([]string, len(apps))
	for i := range apps {
		names[i] = apps[i].name
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
	return a.run(ctx, e, m, machine.Default(procs), o)
}
