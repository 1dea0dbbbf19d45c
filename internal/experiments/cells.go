package experiments

import (
	"context"
	"fmt"

	"o2k/internal/apps/adaptmesh"
	"o2k/internal/apps/barnes"
	"o2k/internal/apps/cg"
	"o2k/internal/apps/stencil"
	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/mesh"
	"o2k/internal/planio"
	"o2k/internal/runner"
)

// The typed cell helpers below are the whole vocabulary the experiments
// need: one run cell per (application, model, machine config, workload),
// plus the plan cells the run cells depend on. They are plain functions over
// a *runner.Engine — the engine itself knows no application. Plans are
// memoized separately because they are shared across the three models at a
// given processor count (and, for the mesh, across ablation variants that
// differ only in run-time knobs) — exactly the sharing the serial drivers
// used to arrange by hand with RunWithPlans.
//
// Plan construction itself splits into two tiers, both persisted:
//
//   - a *structure* cell per workload (the adaptation history, the N-body
//     reference simulation, the refined CG mesh) — independent of the
//     processor count, so every P of a scaling sweep shares one entry;
//   - a *plan* cell per (workload, P) storing only the partitioning
//     decisions; the full plans are re-derived from structure + decisions
//     on decode, which is cheap, keeps entries small, and makes a decoded
//     plan equal to a computed one by construction.
//
// Machine latency/bandwidth constants never enter a structure or plan key —
// only the processor count does — so machine presets that differ only in
// timing (fig12's four classes) share every plan-tier entry.
//
// Dependency discipline: dependencies are demand-driven. A run cell names its
// plan cell in its *prepare* stage (runner.Cell.Prepare), which the engine
// runs only when the run cell itself has to be computed — the memo map, the
// disk and a foreign lease owner have all missed — and before it takes a
// worker slot, so a goroutine never holds a slot while waiting for another
// cell and the bounded pool cannot deadlock, even at -jobs=1. A run cell
// that is already known is served without instantiating, reading or decoding
// anything of the plan tier: a fully warm suite touches only its metrics and
// characteristics entries, and a partially warm one loads exactly the plan
// chains of the cells that missed. A plan cell's failure becomes the outcome
// of every run cell that has to be computed from it, without starting the
// run; a run cell already in the memo map or on disk is served even if its
// plan cell would fail. The builders never read a plan themselves: the few
// numbers Table 1 and the verdicts take from one are small persisted
// *characteristics* cells that depend on the plans the same lazy way.

// prepareFn is the typed form of runner.Cell.Prepare: resolve the cell's
// dependencies under ctx, return the work that captures them.
type prepareFn[T any] func(ctx context.Context) (func() T, error)

// leaf is the prepare stage of a cell with no dependencies.
func leaf[T any](compute func() T) prepareFn[T] {
	return func(context.Context) (func() T, error) { return compute, nil }
}

// after is the prepare stage of a cell with one dependency: resolve dep, then
// compute from its value. what names the dependency in the cell's failure
// when dep fails ("mesh plans: …").
func after[D, T any](what string, dep func(context.Context) (D, error), compute func(D) T) prepareFn[T] {
	return func(ctx context.Context) (func() T, error) {
		d, err := dep(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", what, err)
		}
		return func() T { return compute(d) }, nil
	}
}

// cellOf resolves one cell whose compute cannot fail and asserts the
// outcome's type; a nil codec keeps the cell memory-only.
func cellOf[T any](ctx context.Context, e *runner.Engine, key, label string, codec *runner.Codec, prepare prepareFn[T]) (T, error) {
	v, err := e.DoCell(ctx, runner.Cell{Key: key, Label: label, Codec: codec,
		Prepare: func(ctx context.Context) (runner.Compute, error) {
			compute, err := prepare(ctx)
			if err != nil {
				return nil, err
			}
			return func(context.Context) (any, error) { return compute(), nil }, nil
		}})
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// runCell resolves one metrics run cell, labelled "<app> <model> P=<procs>".
func runCell(ctx context.Context, e *runner.Engine, app string, model core.Model, procs int, key string, prepare prepareFn[core.Metrics]) runner.Res {
	m, err := cellOf(ctx, e, key, runLabel(app, model, procs), runner.MetricsCodec, prepare)
	return runner.Res{M: m, Err: err}
}

// runLabel is the display label of one run, memoized or traced.
func runLabel(app string, model core.Model, procs int) string {
	return fmt.Sprintf("%s %v P=%d", app, model, procs)
}

// planCodec wraps a plan-tier text serialization (internal/planio format) as
// a cache Codec. Payload bytes are stored verbatim — the cache's value
// framing is format-agnostic, so the multi-megabyte plan text is read with
// zero re-encoding passes on warm runs.
func planCodec[T any](enc func(T) []byte, dec func([]byte) (T, error)) *runner.Codec {
	return &runner.Codec{
		Kind:   "plan",
		Encode: func(v any) ([]byte, error) { return enc(v.(T)), nil },
		Decode: func(data []byte) (any, error) { return dec(data) },
	}
}

// meshStructWorkload strips every workload field the adaptation sequence
// does not read — the run-time knobs (solver depth, auxiliary field count,
// the CC-SAS page-migration toggle) and NoRemap, which only affects the
// per-P partitioning. What remains — grid, refinement depth, cycles, front —
// is exactly what changes the structure.
func meshStructWorkload(w adaptmesh.Workload) adaptmesh.Workload {
	w = meshPlanWorkload(w)
	w.NoRemap = false
	return w
}

// meshPlanWorkload strips the workload fields that BuildPlans does not read
// (solver depth, auxiliary field count, the CC-SAS page-migration knob), so
// ablation variants that differ only in those knobs share one plan cell.
// Structural fields — grid, refinement depth, cycles, front, NoRemap — stay,
// because they change the plans.
func meshPlanWorkload(w adaptmesh.Workload) adaptmesh.Workload {
	w.SolveIters = 0
	w.AuxFields = 0
	w.SasPageMigrate = false
	return w
}

// cgStructWorkload strips the fields the CG plan does not depend on: the
// iteration count and the diagonal shift are pure run-time parameters.
func cgStructWorkload(w cg.Workload) cg.Workload {
	w.Iters = 0
	w.Sigma = 0
	return w
}

// Plan-tier cache keys. Each folds in the payload's schema string, so a
// format change retires old entries; none folds in machine timing constants.
func meshStructKey(w adaptmesh.Workload) string {
	return core.CellKey("mesh/structure", adaptmesh.StructureSchema, meshStructWorkload(w))
}

func meshPlanKey(w adaptmesh.Workload, procs int) string {
	return core.CellKey("mesh/plans", adaptmesh.PlanSchema, meshPlanWorkload(w), procs)
}

func nbodyStructKey(w barnes.Workload) string {
	return core.CellKey("nbody/structure", barnes.StructureSchema, w)
}

func nbodyPlanKey(w barnes.Workload, procs int) string {
	return core.CellKey("nbody/plans", w, procs)
}

func cgMeshKey(w cg.Workload) string {
	return core.CellKey("cg/mesh", cg.MeshSchema, cgStructWorkload(w))
}

func cgPlanKey(w cg.Workload, procs int) string {
	return core.CellKey("cg/plan", cg.PlanSchema, cgStructWorkload(w), procs)
}

// MeshPlans returns the memoized cycle plans for the mesh workload at the
// given processor count. The structure cell — the persisted adaptation
// history — is resolved first rather than in the plan cell's prepare stage:
// the plan cell persists only the per-cycle partitioning decisions, and its
// decoder replays them against the structure, so a disk hit needs it too.
func MeshPlans(ctx context.Context, e *runner.Engine, w adaptmesh.Workload, procs int) ([]*adaptmesh.CyclePlan, error) {
	sw := meshStructWorkload(w)
	st, err := cellOf(ctx, e, meshStructKey(w), "mesh structure",
		planCodec(
			func(st *adaptmesh.Structure) []byte { return adaptmesh.EncodeStructure(st, sw) },
			func(data []byte) (*adaptmesh.Structure, error) { return adaptmesh.DecodeStructure(data, sw) }),
		leaf(func() *adaptmesh.Structure { return adaptmesh.BuildStructure(sw) }))
	if err != nil {
		return nil, err
	}
	return cellOf(ctx, e, meshPlanKey(w, procs), fmt.Sprintf("mesh plans P=%d", procs),
		planCodec(
			func(plans []*adaptmesh.CyclePlan) []byte { return adaptmesh.EncodePlans(plans, procs) },
			func(data []byte) ([]*adaptmesh.CyclePlan, error) { return st.DecodePlans(data, procs) }),
		leaf(func() []*adaptmesh.CyclePlan { return st.Plans(procs, w.NoRemap) }))
}

// Mesh runs the adaptive-mesh application under one model on one machine
// configuration (cfg.Procs is the processor count), memoized.
func Mesh(ctx context.Context, e *runner.Engine, model core.Model, cfg machine.Config, w adaptmesh.Workload) runner.Res {
	return runCell(ctx, e, "mesh", model, cfg.Procs, core.CellKey("mesh/run", model, cfg, w), after("mesh plans",
		func(ctx context.Context) ([]*adaptmesh.CyclePlan, error) { return MeshPlans(ctx, e, w, cfg.Procs) },
		func(plans []*adaptmesh.CyclePlan) core.Metrics {
			return adaptmesh.RunWithPlans(model, machine.MustNew(cfg), w, plans)
		}))
}

// MeshModels runs the mesh application under all three models, in parallel
// where the pool allows, returning outcomes in core.AllModels order.
func MeshModels(ctx context.Context, e *runner.Engine, cfg machine.Config, w adaptmesh.Workload) [3]runner.Res {
	return allModels(e, func(m core.Model) runner.Res { return Mesh(ctx, e, m, cfg, w) })
}

// MeshHybrid runs the MP+SAS hybrid mesh extension: plans are built at the
// machine's node count (one MP rank per node board).
func MeshHybrid(ctx context.Context, e *runner.Engine, cfg machine.Config, w adaptmesh.Workload) runner.Res {
	return runCell(ctx, e, "mesh", core.Hybrid, cfg.Procs, core.CellKey("mesh/hybrid", cfg, w),
		func(ctx context.Context) (func() core.Metrics, error) {
			m, err := machine.New(cfg)
			if err != nil {
				return nil, fmt.Errorf("machine: %w", err)
			}
			plans, err := MeshPlans(ctx, e, w, m.Nodes())
			if err != nil {
				return nil, fmt.Errorf("mesh plans: %w", err)
			}
			return func() core.Metrics { return adaptmesh.RunHybridWithPlans(m, w, plans) }, nil
		})
}

// NBodyPlans returns the memoized per-step plans for the N-body workload.
// The structure cell persists the reference-simulation record — the force
// evaluations that dominate plan construction; the per-P derivation
// (cost-zones over the captured positions) is cheap relative to it, so the
// plan cells stay memory-only.
func NBodyPlans(ctx context.Context, e *runner.Engine, w barnes.Workload, procs int) ([]*barnes.StepPlan, error) {
	st, err := cellOf(ctx, e, nbodyStructKey(w), "n-body structure",
		planCodec(barnes.EncodeStructure,
			func(data []byte) (*barnes.Structure, error) { return barnes.DecodeStructure(data, w) }),
		leaf(func() *barnes.Structure { return barnes.BuildStructure(w) }))
	if err != nil {
		return nil, err
	}
	return cellOf(ctx, e, nbodyPlanKey(w, procs), fmt.Sprintf("n-body plans P=%d", procs), nil,
		leaf(func() []*barnes.StepPlan { return st.Plans(procs) }))
}

// NBody runs the Barnes-Hut application under one model, memoized.
func NBody(ctx context.Context, e *runner.Engine, model core.Model, cfg machine.Config, w barnes.Workload) runner.Res {
	return runCell(ctx, e, "n-body", model, cfg.Procs, core.CellKey("nbody/run", model, cfg, w), after("n-body plans",
		func(ctx context.Context) ([]*barnes.StepPlan, error) { return NBodyPlans(ctx, e, w, cfg.Procs) },
		func(plans []*barnes.StepPlan) core.Metrics {
			return barnes.RunWithPlans(model, machine.MustNew(cfg), w, plans)
		}))
}

// NBodyModels runs the N-body application under all three models.
func NBodyModels(ctx context.Context, e *runner.Engine, cfg machine.Config, w barnes.Workload) [3]runner.Res {
	return allModels(e, func(m core.Model) runner.Res { return NBody(ctx, e, m, cfg, w) })
}

// CGPlan returns the memoized static plan for the conjugate-gradient run.
// The mesh cell — the persisted refined snapshot, serialized in the mesh
// global-ID format — is resolved first; the plan cell persists the
// partitioning decision only.
func CGPlan(ctx context.Context, e *runner.Engine, w cg.Workload, procs int) (*cg.Plan, error) {
	sw := cgStructWorkload(w)
	m, err := cellOf(ctx, e, cgMeshKey(w), "cg mesh",
		planCodec(func(m *mesh.Mesh) []byte {
			var pw planio.Writer
			m.AppendGlobal(&pw)
			return pw.Bytes()
		}, mesh.DecodeGlobal),
		leaf(func() *mesh.Mesh { return cg.BuildMesh(sw) }))
	if err != nil {
		return nil, err
	}
	return cellOf(ctx, e, cgPlanKey(w, procs), fmt.Sprintf("cg plan P=%d", procs),
		planCodec(cg.EncodePlan,
			func(data []byte) (*cg.Plan, error) { return cg.DecodePlan(data, sw, m, procs) }),
		leaf(func() *cg.Plan { return cg.PlanForMesh(sw, m, procs) }))
}

// CG runs the conjugate-gradient application under one model, memoized.
func CG(ctx context.Context, e *runner.Engine, model core.Model, cfg machine.Config, w cg.Workload) runner.Res {
	return runCell(ctx, e, "cg", model, cfg.Procs, core.CellKey("cg/run", model, cfg, w), after("cg plan",
		func(ctx context.Context) (*cg.Plan, error) { return CGPlan(ctx, e, w, cfg.Procs) },
		func(plan *cg.Plan) core.Metrics { return cg.RunWithPlan(model, machine.MustNew(cfg), w, plan) }))
}

// CGModels runs the conjugate-gradient application under all three models.
func CGModels(ctx context.Context, e *runner.Engine, cfg machine.Config, w cg.Workload) [3]runner.Res {
	return allModels(e, func(m core.Model) runner.Res { return CG(ctx, e, m, cfg, w) })
}

// Stencil runs the regular Jacobi control application under one model;
// it has no plan stage.
func Stencil(ctx context.Context, e *runner.Engine, model core.Model, cfg machine.Config, w stencil.Workload) runner.Res {
	return runCell(ctx, e, "stencil", model, cfg.Procs, core.CellKey("stencil/run", model, cfg, w),
		leaf(func() core.Metrics { return stencil.Run(model, machine.MustNew(cfg), w) }))
}

// allModels resolves one run cell per model concurrently and returns the
// outcomes in core.AllModels order.
func allModels(e *runner.Engine, run func(core.Model) runner.Res) [3]runner.Res {
	models := core.AllModels()
	return [3]runner.Res(each(e, len(models), func(i int) runner.Res { return run(models[i]) }))
}

// each evaluates f(0..n-1) concurrently on e.Warm — the prefetch idiom of the
// table builders: fire every cell a table needs, let the pool run the unique
// ones in parallel, then assemble serially from the indexed results.
func each[T any](e *runner.Engine, n int, f func(i int) T) []T {
	out := make([]T, n)
	fns := make([]func(), n)
	for i := range fns {
		fns[i] = func() { out[i] = f(i) }
	}
	e.Warm(fns...)
	return out
}
