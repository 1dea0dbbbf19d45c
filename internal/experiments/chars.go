package experiments

import (
	"context"
	"encoding/json"
	"fmt"

	"o2k/internal/apps/adaptmesh"
	"o2k/internal/apps/barnes"
	"o2k/internal/apps/cg"
	"o2k/internal/core"
	"o2k/internal/runner"
)

// Characteristics cells: the handful of numbers Table 1 reads off a plan,
// its workload sizes. Each is keyed on its plan cell's key plus charsSchema,
// persists as strict JSON (float64s round-trip exactly, see core/codec.go),
// and names the plans as its dependency, so a warm suite renders those rows
// from a few hundred bytes and a cold one builds the same plans the run
// cells share.

// charsSchema retires persisted characteristics when a struct below changes.
const charsSchema = "o2kchars 2"

// meshChars summarizes one mesh plan sequence.
type meshChars struct {
	Cycles    int     // plans in the sequence
	Tris      int     // Σ triangles over the cycles
	Edges     int     // Σ edges over the cycles
	FinalTris int     // triangles after the last cycle
	Imbalance float64 // the last cycle's load imbalance on its (post-remap) decomposition
}

// nbodyChars summarizes one N-body plan sequence.
type nbodyChars struct {
	Steps int // plans in the sequence
	Inter int // Σ interactions over the steps
	Cells int // Σ tree cells over the steps
}

// cgChars summarizes the conjugate-gradient plan's mesh.
type cgChars struct {
	Tris, Edges, Rows int
}

// charsCodec persists a characteristics struct as strict JSON
// (core.DecodeStrict): a payload of another shape is a decode error, so the
// entry is evicted and recomputed instead of half-read.
func charsCodec[T any]() *runner.Codec {
	return &runner.Codec{
		Kind:   "characteristics",
		Encode: func(v any) ([]byte, error) { return json.Marshal(v.(T)) },
		Decode: func(data []byte) (any, error) {
			var c T
			err := core.DecodeStrict(data, &c)
			return c, err
		},
	}
}

// meshCharacteristics returns the memoized summary of meshPlans(w, procs).
func meshCharacteristics(ctx context.Context, e *runner.Engine, w adaptmesh.Workload, procs int) (meshChars, error) {
	return cellOf(ctx, e, core.CellKey("mesh/chars", charsSchema, meshPlanKey(w, procs)), fmt.Sprintf("mesh characteristics P=%d", procs), charsCodec[meshChars](),
		func(ctx context.Context) (func() meshChars, error) {
			plans, err := meshPlans(ctx, e, w, procs)
			return func() meshChars {
				c := meshChars{Cycles: len(plans)}
				for _, pl := range plans {
					c.Tris += pl.M.NumTris()
					c.Edges += pl.M.NumEdges()
				}
				if len(plans) > 0 {
					last := plans[len(plans)-1]
					c.FinalTris, c.Imbalance = last.M.NumTris(), last.Imbalance
				}
				return c
			}, err
		})
}

// nbodyCharacteristics returns the memoized summary of nbodyPlans(w, procs).
func nbodyCharacteristics(ctx context.Context, e *runner.Engine, w barnes.Workload, procs int) (nbodyChars, error) {
	return cellOf(ctx, e, core.CellKey("nbody/chars", charsSchema, nbodyPlanKey(w, procs)), fmt.Sprintf("n-body characteristics P=%d", procs), charsCodec[nbodyChars](),
		func(ctx context.Context) (func() nbodyChars, error) {
			plans, err := nbodyPlans(ctx, e, w, procs)
			return func() nbodyChars {
				c := nbodyChars{Steps: len(plans)}
				for _, pl := range plans {
					c.Inter += pl.TotalInter
					c.Cells += pl.Tree.NumCells()
				}
				return c
			}, err
		})
}

// cgCharacteristics returns the memoized summary of cgPlan(w, procs).
func cgCharacteristics(ctx context.Context, e *runner.Engine, w cg.Workload, procs int) (cgChars, error) {
	return cellOf(ctx, e, core.CellKey("cg/chars", charsSchema, cgPlanKey(w, procs)), fmt.Sprintf("cg characteristics P=%d", procs), charsCodec[cgChars](),
		func(ctx context.Context) (func() cgChars, error) {
			plan, err := cgPlan(ctx, e, w, procs)
			return func() cgChars {
				return cgChars{Tris: plan.M.NumTris(), Edges: plan.M.NumEdges(), Rows: plan.M.NumVertsUsed()}
			}, err
		})
}
