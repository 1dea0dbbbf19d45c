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

// Characteristics cells: the handful of numbers the table builders read off
// a plan — Table 1's workload sizes and the verdicts' moved-weight sums. Each
// is keyed on its plan cell's key plus charsSchema, persists as strict JSON
// (float64s round-trip exactly, see core/codec.go), and names the plans as
// its dependency, so a warm suite renders those rows from a few hundred bytes
// and a cold one builds the same plans the run cells share.

// charsSchema retires persisted characteristics when a struct below changes.
const charsSchema = "o2kchars 1"

// MeshChars summarizes one mesh plan sequence.
type MeshChars struct {
	Cycles    int     // plans in the sequence
	Tris      int     // Σ triangles over the cycles
	Edges     int     // Σ edges over the cycles
	FinalTris int     // triangles after the last cycle
	Imbalance float64 // the last cycle's load imbalance before rebalancing
	MovedW    float64 // Σ Remap.TotalW: weight the remapper moved
}

// NBodyChars summarizes one N-body plan sequence.
type NBodyChars struct {
	Steps int // plans in the sequence
	Inter int // Σ interactions over the steps
	Cells int // Σ tree cells over the steps
}

// CGChars summarizes the conjugate-gradient plan's mesh.
type CGChars struct {
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

// MeshCharacteristics returns the memoized summary of MeshPlans(w, procs).
func MeshCharacteristics(ctx context.Context, e *runner.Engine, w adaptmesh.Workload, procs int) (MeshChars, error) {
	return cellOf(ctx, e, core.CellKey("mesh/chars", charsSchema, meshPlanKey(w, procs)), fmt.Sprintf("mesh characteristics P=%d", procs), charsCodec[MeshChars](),
		after("mesh plans",
			func(ctx context.Context) ([]*adaptmesh.CyclePlan, error) { return MeshPlans(ctx, e, w, procs) },
			func(plans []*adaptmesh.CyclePlan) MeshChars {
				c := MeshChars{Cycles: len(plans)}
				for _, pl := range plans {
					c.Tris += pl.M.NumTris()
					c.Edges += pl.M.NumEdges()
					c.MovedW += pl.Remap.TotalW
				}
				if len(plans) > 0 {
					last := plans[len(plans)-1]
					c.FinalTris, c.Imbalance = last.M.NumTris(), last.Imbalance
				}
				return c
			}))
}

// NBodyCharacteristics returns the memoized summary of NBodyPlans(w, procs).
func NBodyCharacteristics(ctx context.Context, e *runner.Engine, w barnes.Workload, procs int) (NBodyChars, error) {
	return cellOf(ctx, e, core.CellKey("nbody/chars", charsSchema, nbodyPlanKey(w, procs)), fmt.Sprintf("n-body characteristics P=%d", procs), charsCodec[NBodyChars](),
		after("n-body plans",
			func(ctx context.Context) ([]*barnes.StepPlan, error) { return NBodyPlans(ctx, e, w, procs) },
			func(plans []*barnes.StepPlan) NBodyChars {
				c := NBodyChars{Steps: len(plans)}
				for _, pl := range plans {
					c.Inter += pl.TotalInter
					c.Cells += pl.Tree.NumCells()
				}
				return c
			}))
}

// CGCharacteristics returns the memoized summary of CGPlan(w, procs).
func CGCharacteristics(ctx context.Context, e *runner.Engine, w cg.Workload, procs int) (CGChars, error) {
	return cellOf(ctx, e, core.CellKey("cg/chars", charsSchema, cgPlanKey(w, procs)), fmt.Sprintf("cg characteristics P=%d", procs), charsCodec[CGChars](),
		after("cg plan",
			func(ctx context.Context) (*cg.Plan, error) { return CGPlan(ctx, e, w, procs) },
			func(plan *cg.Plan) CGChars {
				return CGChars{Tris: plan.M.NumTris(), Edges: plan.M.NumEdges(), Rows: plan.M.NumVertsUsed()}
			}))
}
