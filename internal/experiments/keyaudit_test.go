package experiments

// Exhaustive-field audit of the plan-tier cache keys (the analogue of
// core/key_test.go for the typed key helpers in cells.go): every field of
// every workload struct must either change the cache key when mutated, or
// appear on that key's explicit exclusion list. Adding a Workload field and
// excluding it from a key without updating the list here fails this test —
// the decision to share cache entries across a knob must be deliberate.

import (
	"reflect"
	"testing"

	"o2k/internal/apps/adaptmesh"
	"o2k/internal/apps/barnes"
	"o2k/internal/apps/cg"
)

// mutant is one single-field mutation of a workload struct.
type mutant struct {
	path string // dotted field path, e.g. "Front.Radius"
	val  reflect.Value
}

// withField returns a copy of struct value w with field i replaced by nv.
func withField(w reflect.Value, i int, nv reflect.Value) reflect.Value {
	c := reflect.New(w.Type()).Elem()
	c.Set(w)
	c.Field(i).Set(nv)
	return c
}

// mutants returns one mutated copy of struct value w per leaf field,
// recursing through nested structs and non-nil pointers and emitting a
// nil→non-nil toggle (and vice versa) for pointer fields.
func mutants(t *testing.T, w reflect.Value, prefix string) []mutant {
	t.Helper()
	var out []mutant
	wt := w.Type()
	for i := 0; i < wt.NumField(); i++ {
		f := wt.Field(i)
		p := f.Name
		if prefix != "" {
			p = prefix + "." + f.Name
		}
		fv := w.Field(i)
		switch fv.Kind() {
		case reflect.Struct:
			for _, m := range mutants(t, fv, p) {
				out = append(out, mutant{m.path, withField(w, i, m.val)})
			}
		case reflect.Pointer:
			if fv.IsNil() {
				out = append(out, mutant{p, withField(w, i, reflect.New(f.Type.Elem()))})
				break
			}
			out = append(out, mutant{p, withField(w, i, reflect.Zero(f.Type))})
			for _, m := range mutants(t, fv.Elem(), p) {
				np := reflect.New(f.Type.Elem())
				np.Elem().Set(m.val)
				out = append(out, mutant{m.path, withField(w, i, np)})
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			nv := reflect.New(f.Type).Elem()
			nv.SetInt(fv.Int() + 1)
			out = append(out, mutant{p, withField(w, i, nv)})
		case reflect.Float32, reflect.Float64:
			nv := reflect.New(f.Type).Elem()
			nv.SetFloat(fv.Float() + 1.5)
			out = append(out, mutant{p, withField(w, i, nv)})
		case reflect.Bool:
			nv := reflect.New(f.Type).Elem()
			nv.SetBool(!fv.Bool())
			out = append(out, mutant{p, withField(w, i, nv)})
		case reflect.String:
			nv := reflect.New(f.Type).Elem()
			nv.SetString(fv.String() + "x")
			out = append(out, mutant{p, withField(w, i, nv)})
		default:
			t.Fatalf("workload field %s has unhandled kind %v — extend the key audit", p, fv.Kind())
		}
	}
	return out
}

// topField returns the top-level field name of a dotted path.
func topField(path string) string {
	for i := 0; i < len(path); i++ {
		if path[i] == '.' {
			return path[:i]
		}
	}
	return path
}

func auditKey(t *testing.T, name string, base any, key func(reflect.Value) string, excluded map[string]bool) {
	t.Helper()
	bv := reflect.ValueOf(base)
	ref := key(bv)
	seen := map[string]bool{}
	for _, m := range mutants(t, bv, "") {
		top := topField(m.path)
		seen[top] = true
		changed := key(m.val) != ref
		if want := !excluded[top]; changed != want {
			if want {
				t.Errorf("%s: mutating %s did NOT change the cache key — the field is silently excluded; either fold it into the key or add it to this audit's exclusion list", name, m.path)
			} else {
				t.Errorf("%s: mutating %s changed the cache key, but %s is on the exclusion list — entries that should be shared are not", name, m.path, top)
			}
		}
	}
	for f := range excluded {
		if !seen[f] {
			t.Errorf("%s: exclusion list names unknown field %s", name, f)
		}
	}
}

func TestPlanCacheKeysAuditEveryWorkloadField(t *testing.T) {
	auditKey(t, "mesh/structure", adaptmesh.Small(),
		func(v reflect.Value) string { return meshStructKey(v.Interface().(adaptmesh.Workload)) },
		map[string]bool{"SolveIters": true, "AuxFields": true, "SasPageMigrate": true, "NoRemap": true})
	auditKey(t, "mesh/plans", adaptmesh.Small(),
		func(v reflect.Value) string { return meshPlanKey(v.Interface().(adaptmesh.Workload), 4) },
		map[string]bool{"SolveIters": true, "AuxFields": true, "SasPageMigrate": true})

	auditKey(t, "nbody/structure", barnes.Small(),
		func(v reflect.Value) string { return nbodyStructKey(v.Interface().(barnes.Workload)) },
		nil)

	auditKey(t, "cg/mesh", cg.Small(),
		func(v reflect.Value) string { return cgMeshKey(v.Interface().(cg.Workload)) },
		map[string]bool{"Iters": true, "Sigma": true})
	auditKey(t, "cg/plan", cg.Small(),
		func(v reflect.Value) string { return cgPlanKey(v.Interface().(cg.Workload), 4) },
		map[string]bool{"Iters": true, "Sigma": true})
}

// The per-P plan keys must discriminate on the processor count (it is the
// one machine parameter that changes partitioning), and nothing else about
// the machine: two presets differing only in latency constants never appear
// in the key's inputs, so sharing across them is structural.
func TestPlanKeysDiscriminateProcs(t *testing.T) {
	if meshPlanKey(adaptmesh.Small(), 4) == meshPlanKey(adaptmesh.Small(), 8) {
		t.Error("mesh plan key ignores the processor count")
	}
	if cgPlanKey(cg.Small(), 4) == cgPlanKey(cg.Small(), 8) {
		t.Error("cg plan key ignores the processor count")
	}
}
