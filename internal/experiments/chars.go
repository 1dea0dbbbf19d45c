package experiments

import (
	"context"
	"encoding/json"

	"o2k/internal/apps/adaptmesh"
	"o2k/internal/apps/barnes"
	"o2k/internal/apps/cg"
	"o2k/internal/core"
	"o2k/internal/runner"
)

// Characteristics cells: the handful of numbers Table 1 reads off a
// structure cell, its workload sizes, which no processor count changes. Each
// is keyed on its structure cell's key plus charsSchema, persists as strict
// JSON (see core/codec.go), and names the structure as its dependency, so a
// warm suite renders those rows from a few hundred bytes and a cold one
// builds the same structures the plan cells share.

// charsSchema retires persisted characteristics when a struct below changes.
const charsSchema = "o2kchars 3"

// meshChars summarizes one mesh adaptation history.
type meshChars struct {
	Cycles    int // cycles in the history
	Tris      int // Σ triangles over the cycles
	Edges     int // Σ edges over the cycles
	FinalTris int // triangles after the last cycle
}

// nbodyChars summarizes one N-body reference simulation.
type nbodyChars struct {
	Steps int // steps in the record
	Inter int // Σ interactions over the steps
	Cells int // Σ tree cells over the steps
}

// cgChars summarizes the conjugate-gradient mesh.
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

// meshCharacteristics returns the memoized summary of meshStructure(w).
func meshCharacteristics(ctx context.Context, e *runner.Engine, w adaptmesh.Workload) (meshChars, error) {
	return cellOf(ctx, e, core.CellKey("mesh/chars", charsSchema, meshStructKey(w)), "mesh characteristics", charsCodec[meshChars](),
		func(ctx context.Context) (func() meshChars, error) {
			st, err := meshStructure(ctx, e, w)
			return func() meshChars {
				c := meshChars{Cycles: len(st.Cycles)}
				for _, sc := range st.Cycles {
					c.Tris += sc.M.NumTris()
					c.Edges += sc.M.NumEdges()
					c.FinalTris = sc.M.NumTris()
				}
				return c
			}, err
		})
}

// nbodyCharacteristics returns the memoized summary of nbodyStructure(w).
func nbodyCharacteristics(ctx context.Context, e *runner.Engine, w barnes.Workload) (nbodyChars, error) {
	return cellOf(ctx, e, core.CellKey("nbody/chars", charsSchema, nbodyStructKey(w)), "n-body characteristics", charsCodec[nbodyChars](),
		func(ctx context.Context) (func() nbodyChars, error) {
			st, err := nbodyStructure(ctx, e, w)
			return func() nbodyChars {
				c := nbodyChars{Steps: len(st.Steps)}
				for _, ss := range st.Steps {
					for _, n := range ss.Inter {
						c.Inter += n
					}
					c.Cells += ss.Tree.NumCells()
				}
				return c
			}, err
		})
}

// cgCharacteristics returns the memoized summary of cgMesh(w).
func cgCharacteristics(ctx context.Context, e *runner.Engine, w cg.Workload) (cgChars, error) {
	return cellOf(ctx, e, core.CellKey("cg/chars", charsSchema, cgMeshKey(w)), "cg characteristics", charsCodec[cgChars](),
		func(ctx context.Context) (func() cgChars, error) {
			m, err := cgMesh(ctx, e, w)
			return func() cgChars {
				return cgChars{Tris: m.NumTris(), Edges: m.NumEdges(), Rows: m.NumVertsUsed()}
			}, err
		})
}
