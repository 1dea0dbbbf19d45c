package experiments

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"o2k/internal/apps/adaptmesh"
	"o2k/internal/apps/barnes"
	"o2k/internal/apps/cg"
	"o2k/internal/core"
	"o2k/internal/mesh"
	"o2k/internal/planio"
	"o2k/internal/runner"
)

// The cells the experiments are built from: one run cell per (application,
// model, machine config, workload) — the application table (apps.go) wires
// each one — plus the plan cells the run cells depend on, defined here with
// the one request path every cell takes (cellOf). They are plain functions
// over a *runner.Engine — the engine itself knows no application. Plans are
// memoized separately because they are shared across the three models at a
// given processor count (and, for the mesh, across ablation variants that
// differ only in run-time knobs).
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
// plan cell would fail. The builders never read the plan tier themselves:
// Table 1's few numbers come from small persisted *characteristics* cells
// that depend on the structure cells the same lazy way.

// prepareFn is the typed form of runner.Cell.Prepare: resolve the cell's
// dependencies under ctx, return the work that captures them.
type prepareFn[T any] func(ctx context.Context) (func() T, error)

// leaf is the prepare stage of a cell with no dependencies.
func leaf[T any](compute func() T) prepareFn[T] {
	return func(context.Context) (func() T, error) { return compute, nil }
}

// Failure is one failed cell a request asked for, with the error it got.
type Failure struct {
	Label, Key string
	Err        error
}

// ledger holds one request's failed cells by key, since labels repeat. It
// rides the request's context, nested in the ledger of any request around it.
type ledger struct {
	outer  *ledger
	failed sync.Map // cell key → Failure
}

type ledgerKey struct{}

// track returns ctx carrying a fresh ledger and a function listing its
// failures by label, then key, an order no schedule changes.
func track(ctx context.Context) (context.Context, func() []Failure) {
	outer, _ := ctx.Value(ledgerKey{}).(*ledger)
	l := &ledger{outer: outer}
	return context.WithValue(ctx, ledgerKey{}, l), func() (fs []Failure) {
		l.failed.Range(func(_, f any) bool { fs = append(fs, f.(Failure)); return true })
		slices.SortFunc(fs, func(a, b Failure) int {
			return cmp.Or(cmp.Compare(a.Label, b.Label), cmp.Compare(a.Key, b.Key))
		})
		return fs
	}
}

// cellOf resolves one cell whose compute cannot fail and asserts the
// outcome's type; a nil codec keeps the cell memory-only. It is every
// builder's one way to request a cell, so it records each failed request in
// ctx's ledgers. A Prepare stage runs under its cell's own context, which
// carries no ledger: a failed dependency counts only as the failure of the
// cell that needed it, and once a request's builders return, nothing can
// record into its ledger any more.
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
		for l, _ := ctx.Value(ledgerKey{}).(*ledger); l != nil; l = l.outer {
			l.failed.Store(key, Failure{Label: label, Key: key, Err: err})
		}
		var zero T
		return zero, err
	}
	return v.(T), nil
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

// meshStructure returns the memoized adaptation history of the mesh
// workload, the one structure cell every processor count's plan cell and the
// characteristics cell derive from.
func meshStructure(ctx context.Context, e *runner.Engine, w adaptmesh.Workload) (*adaptmesh.Structure, error) {
	sw := meshStructWorkload(w)
	return cellOf(ctx, e, meshStructKey(w), "mesh structure",
		planCodec(
			func(st *adaptmesh.Structure) []byte { return adaptmesh.EncodeStructure(st, sw) },
			func(data []byte) (*adaptmesh.Structure, error) { return adaptmesh.DecodeStructure(data, sw) }),
		leaf(func() *adaptmesh.Structure { return adaptmesh.BuildStructure(sw) }))
}

// meshPlans returns the memoized cycle plans for the mesh workload at the
// given processor count. The structure cell is resolved first rather than in
// the plan cell's prepare stage: the plan cell persists only the per-cycle
// partitioning decisions, and its decoder replays them against the
// structure, so a disk hit needs it too. Either cell's failure is its error,
// as "mesh plans: …".
func meshPlans(ctx context.Context, e *runner.Engine, w adaptmesh.Workload, procs int) ([]*adaptmesh.CyclePlan, error) {
	st, err := meshStructure(ctx, e, w)
	if err != nil {
		return nil, fmt.Errorf("mesh plans: %w", err)
	}
	plans, err := cellOf(ctx, e, meshPlanKey(w, procs), fmt.Sprintf("mesh plans P=%d", procs),
		planCodec(
			func(plans []*adaptmesh.CyclePlan) []byte { return adaptmesh.EncodePlans(plans, procs) },
			func(data []byte) ([]*adaptmesh.CyclePlan, error) { return st.DecodePlans(data, procs) }),
		leaf(func() []*adaptmesh.CyclePlan { return st.Plans(procs, w.NoRemap) }))
	if err != nil {
		return nil, fmt.Errorf("mesh plans: %w", err)
	}
	return plans, nil
}

// nbodyStructure returns the memoized reference-simulation record of the
// N-body workload: the force evaluations that dominate plan construction.
func nbodyStructure(ctx context.Context, e *runner.Engine, w barnes.Workload) (*barnes.Structure, error) {
	return cellOf(ctx, e, nbodyStructKey(w), "n-body structure",
		planCodec(barnes.EncodeStructure,
			func(data []byte) (*barnes.Structure, error) { return barnes.DecodeStructure(data, w) }),
		leaf(func() *barnes.Structure { return barnes.BuildStructure(w) }))
}

// nbodyPlans returns the memoized per-step plans for the N-body workload.
// The per-P derivation (cost-zones over the structure's captured positions)
// is cheap relative to the structure, so the plan cells stay memory-only.
// Either cell's failure is its error, as "n-body plans: …".
func nbodyPlans(ctx context.Context, e *runner.Engine, w barnes.Workload, procs int) ([]*barnes.StepPlan, error) {
	st, err := nbodyStructure(ctx, e, w)
	if err != nil {
		return nil, fmt.Errorf("n-body plans: %w", err)
	}
	plans, err := cellOf(ctx, e, nbodyPlanKey(w, procs), fmt.Sprintf("n-body plans P=%d", procs), nil,
		leaf(func() []*barnes.StepPlan { return st.Plans(procs) }))
	if err != nil {
		return nil, fmt.Errorf("n-body plans: %w", err)
	}
	return plans, nil
}

// cgMesh returns the memoized refined mesh of the conjugate-gradient
// workload, persisted in the mesh global-ID format.
func cgMesh(ctx context.Context, e *runner.Engine, w cg.Workload) (*mesh.Mesh, error) {
	return cellOf(ctx, e, cgMeshKey(w), "cg mesh",
		planCodec(func(m *mesh.Mesh) []byte {
			var pw planio.Writer
			m.AppendGlobal(&pw)
			return pw.Bytes()
		}, mesh.DecodeGlobal),
		leaf(func() *mesh.Mesh { return cg.BuildMesh(cgStructWorkload(w)) }))
}

// cgPlan returns the memoized static plan for the conjugate-gradient run.
// The mesh cell is resolved first; the plan cell persists the partitioning
// decision only. Either cell's failure is its error, as "cg plan: …".
func cgPlan(ctx context.Context, e *runner.Engine, w cg.Workload, procs int) (*cg.Plan, error) {
	m, err := cgMesh(ctx, e, w)
	if err != nil {
		return nil, fmt.Errorf("cg plan: %w", err)
	}
	sw := cgStructWorkload(w)
	plan, err := cellOf(ctx, e, cgPlanKey(w, procs), fmt.Sprintf("cg plan P=%d", procs),
		planCodec(cg.EncodePlan,
			func(data []byte) (*cg.Plan, error) { return cg.DecodePlan(data, sw, m, procs) }),
		leaf(func() *cg.Plan { return cg.PlanForMesh(sw, m, procs) }))
	if err != nil {
		return nil, fmt.Errorf("cg plan: %w", err)
	}
	return plan, nil
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
