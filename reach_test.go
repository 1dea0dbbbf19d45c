package o2k_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// unreached is the allow-list of TestExportedNamesAreReached: exported names
// under internal/ that no non-test file of the root module or of bench/
// references, each with the reason it stays. A name of the form pkg.Type
// stands for the unreferenced methods of that type. The list is capped, and
// an entry that no longer matches anything fails the test, so it can only
// shrink.
var unreached = map[string]string{
	// Oracles: sequential references the tests compare the parallel codes to.
	"nbody.Bodies.Energy": "oracle: total energy, the conservation check of the integrator tests",

	// Observers: what tests read a result through.
	"numa.Array.Home":            "observer: page placement as the placement tests see it",
	"numa.Space.AllocBytes":      "observer: allocated array bytes (backing tests; AllocBytes = Σ every array allocated, Release never decrements it; an invariant of the ROADMAP item \"Checked mode\")",
	"obs.ValidateChrome":         "observer: the trace-schema assertion behind the -trace acceptance tests",
	"obs.ChromeTrace":            "observer: Pids/Spans/Threads, the queries the track-shape assertions are built on",
	"runner/diskcache.Cache.Len": "observer: committed entries, for the nothing-was-persisted assertions",

	// Fault seams: how tests inject failures and foreign builds.
	"runner/diskcache.NewFaultFS":      "fault seam: the injectable filesystem of the cache, lease and kill-resume suites",
	"runner/diskcache.FaultFS":         "fault seam: its Fail*/Flip*/Truncate*/Match knobs and Ops/Locks counters",
	"runner/diskcache.WithFS":          "fault seam: opens a cache over a FaultFS",
	"runner/diskcache.WithFingerprint": "fault seam: opens a cache as another build, for the version-fence tests",
}

const maxUnreached = 10

// TestExportedNamesAreReached pins "no capability without a caller": every
// exported package-level name and method under internal/ is referenced from a
// non-test file of the root module (cmd/ included) or of
// bench/, or is a method of an interface its type implements (fmt.Stringer,
// error, sort.Interface, diskcache.FS, the errors package's Unwrap — calls
// through the interface are its callers), or is on the unreached list above.
// A name only tests call is a capability without a caller: delete it with
// them, give it a caller, or argue for it on the list.
//
// Both modules are type-checked from source (go/types; std comes from the
// export data `go list -export` names), so a reference is a resolved
// identifier, not a spelling.
func TestExportedNamesAreReached(t *testing.T) {
	if len(unreached) > maxUnreached {
		t.Fatalf("the unreached list has %d entries, at most %d may stay", len(unreached), maxUnreached)
	}
	w := loadedWorld(t)

	used := map[types.Object]bool{}
	for id, obj := range w.info.Uses {
		if w.recvIdents[id] {
			continue // naming a type to hang a method on it is not a use of the type
		}
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		used[obj] = true
	}
	ifaces := w.interfaces()

	matched := map[string]bool{}
	var dead []string
	report := func(name, typeName string) {
		switch {
		case unreached[name] != "":
			matched[name] = true
		case typeName != "" && unreached[typeName] != "":
			matched[typeName] = true
		default:
			dead = append(dead, name)
		}
	}
	for _, p := range w.checked {
		short, internal := strings.CutPrefix(p.Path(), "o2k/internal/")
		if !internal {
			continue
		}
		for _, n := range p.Scope().Names() {
			obj := p.Scope().Lookup(n)
			if !obj.Exported() {
				continue
			}
			if !used[obj] {
				report(short+"."+n, "")
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() || used[m] {
					continue
				}
				if named.TypeParams().Len() == 0 && implementsSome(named, m.Name(), ifaces) {
					continue
				}
				report(short+"."+n+"."+m.Name(), short+"."+n)
			}
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("%s: exported, and referenced by no non-test file of either module", name)
	}
	for name := range unreached {
		if !matched[name] {
			t.Errorf("%s is on the unreached list but is referenced (or gone): drop the entry", name)
		}
	}
}

// liveExempt is the allow-list of TestFieldsAreLive, each entry with the
// reason it stays. An entry pkg.Type is an untagged JSON payload: encoding/json
// reads every field of it, so none needs a reader in the code. An entry
// pkg.Type.Field is a field that breaks a rule. The list is capped, and an
// entry that excuses nothing fails the test.
var liveExempt = map[string]string{
	"runner/lease.Config.FS": "fault seam: tests lease over a FaultFS; New fills in OSFS",
	"server.Config.Hook":     "test seam: tests chain their own observer onto the daemon's engine events",
}

const maxLiveExempt = 2

// knobTypes are the structs a run is configured through: besides being read,
// every field of one must be set by a non-test file, or it is a switch that
// nothing can turn.
var knobTypes = []string{
	"machine.Config", "mesh.MovingFront",
	"apps/adaptmesh.Workload", "apps/barnes.Workload", "apps/cg.Workload", "apps/stencil.Workload",
	"experiments.Opts", "experiments.Request",
	"runner.Policy", "server.Config", "runner/lease.Config",
}

// TestFieldsAreLive is TestExportedNamesAreReached for struct fields, which a
// name rule cannot see: a cost parameter nothing charges, or a switch nothing
// sets, compiles and type-checks forever. Two rules, over the non-test files
// of both modules:
//
//  1. Every exported field of an exported struct under internal/ is read: a
//     selector that is not the target of an assignment or ++/--, &x.f, or a
//     json tag other than "-" (encoding/json reads the field).
//  2. Every field of a knob type is also set: an assignment outside the
//     package that declares the type, a composite-literal key (or a
//     positional literal), or &x.f. An assignment inside that package is a
//     default filled in for a caller, not a caller.
//
// Fields of generic types are counted on their declaration.
func TestFieldsAreLive(t *testing.T) {
	if len(liveExempt) > maxLiveExempt {
		t.Fatalf("the field allow-list has %d entries, at most %d may stay", len(liveExempt), maxLiveExempt)
	}
	w := loadedWorld(t)
	read, set := w.fieldUses()

	structs := map[string]*types.Named{}
	for _, p := range w.checked {
		short, internal := strings.CutPrefix(p.Path(), "o2k/internal/")
		if !internal {
			continue
		}
		for _, n := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(n).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				if _, ok := named.Underlying().(*types.Struct); ok {
					structs[short+"."+n] = named
				}
			}
		}
	}
	knobs := map[string]bool{}
	for _, name := range knobTypes {
		if structs[name] == nil {
			t.Errorf("knob type %s is not an exported struct under internal/", name)
		}
		knobs[name] = true
	}

	matched := map[string]bool{}
	var dead []string
	for typeName, named := range structs {
		st := named.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			name := typeName + "." + f.Name()
			var why []string
			if f.Exported() && !read[f] && !jsonTagged(st.Tag(i)) {
				if liveExempt[typeName] != "" {
					matched[typeName] = true
				} else {
					why = append(why, "read")
				}
			}
			if knobs[typeName] && !set[f] {
				why = append(why, "set")
			}
			switch {
			case len(why) == 0:
			case liveExempt[name] != "":
				matched[name] = true
			default:
				dead = append(dead, name+": never "+strings.Join(why, " or ")+" by a non-test file of either module")
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Error(d)
	}
	for name := range liveExempt {
		if !matched[name] {
			t.Errorf("%s is on the field allow-list but excuses nothing (or is gone): drop the entry", name)
		}
	}
}

// jsonTagged reports whether a field's tag names it for encoding/json.
func jsonTagged(tag string) bool {
	v, ok := reflect.StructTag(tag).Lookup("json")
	name, _, _ := strings.Cut(v, ",")
	return ok && name != "-"
}

// fieldUses walks every checked non-test file and returns the struct fields
// it reads and those it sets, each on its declaration (Origin).
func (w *world) fieldUses() (read, set map[*types.Var]bool) {
	read, set = map[*types.Var]bool{}, map[*types.Var]bool{}
	for _, f := range w.files {
		pkg := w.filePkg[f]
		targets := map[ast.Expr]bool{} // a statement is visited before its operands
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					targets[ast.Unparen(lhs)] = true
				}
			case *ast.IncDecStmt:
				targets[ast.Unparen(n.X)] = true
			case *ast.SelectorExpr:
				if sel := w.info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal {
					v := sel.Obj().(*types.Var)
					if targets[n] {
						if v.Pkg() != pkg {
							set[v.Origin()] = true
						}
					} else {
						read[v.Origin()] = true
					}
				}
			case *ast.UnaryExpr:
				if x, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok && n.Op == token.AND {
					if v, ok := w.info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
						set[v.Origin()] = true
					}
				}
			case *ast.CompositeLit:
				st, ok := w.info.Types[n].Type.Underlying().(*types.Struct)
				if !ok {
					return true
				}
				for i, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if v, ok := w.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							set[v.Origin()] = true
						}
					} else {
						set[st.Field(i).Origin()] = true
					}
				}
			}
			return true
		})
	}
	return read, set
}

// world is both modules type-checked into one universe of objects: module
// packages from source, in dependency order, so a use in one package and the
// declaration in another are the same types.Object.
type world struct {
	fset       *token.FileSet
	info       *types.Info
	exports    map[string]string         // std import path → export data file
	bySource   map[string]*types.Package // module packages checked so far
	checked    []*types.Package
	files      []*ast.File // the non-test files of every checked package
	filePkg    map[*ast.File]*types.Package
	recvIdents map[*ast.Ident]bool
	imp        types.Importer
}

var (
	worldOnce sync.Once
	theWorld  *world
	worldErr  error
)

// loadedWorld type-checks both modules once per test binary; every test that
// asks shares the result.
func loadedWorld(t *testing.T) *world {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH")
	}
	worldOnce.Do(func() {
		w := newWorld()
		for _, dir := range []string{".", "bench"} {
			if worldErr = w.load(dir); worldErr != nil {
				return
			}
		}
		theWorld = w
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return theWorld
}

func newWorld() *world {
	w := &world{
		fset: token.NewFileSet(),
		info: &types.Info{
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		exports:    map[string]string{},
		bySource:   map[string]*types.Package{},
		filePkg:    map[*ast.File]*types.Package{},
		recvIdents: map[*ast.Ident]bool{},
	}
	std := importer.ForCompiler(w.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := w.exports[path]
		if !ok {
			return nil, errors.New("no export data for " + path)
		}
		return os.Open(file)
	})
	w.imp = importerFunc(func(path string) (*types.Package, error) {
		if p := w.bySource[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})
	return w
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// load type-checks every package of the module rooted at dir, non-test files
// only. `go list -deps` lists a package after its dependencies.
func (w *world) load(dir string) error {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,Export,GoFiles,Standard", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list in %s: %v", dir, err)
	}
	for dec := json.NewDecoder(strings.NewReader(string(out))); ; {
		var p struct {
			ImportPath, Dir, Export string
			GoFiles                 []string
			Standard                bool
		}
		if err := dec.Decode(&p); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		if p.Standard {
			w.exports[p.ImportPath] = p.Export
			continue
		}
		if w.bySource[p.ImportPath] != nil {
			continue // bench/ lists the root module's packages again
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(w.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, f)
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							w.recvIdents[id] = true
						}
						return true
					})
				}
			}
		}
		pkg, err := (&types.Config{Importer: w.imp}).Check(p.ImportPath, w.fset, files, w.info)
		if err != nil {
			return fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		w.bySource[p.ImportPath] = pkg
		w.checked = append(w.checked, pkg)
		w.files = append(w.files, files...)
		for _, f := range files {
			w.filePkg[f] = pkg
		}
	}
}

// interfaces collects every named, non-generic interface declared in a
// checked package or in anything one imports, plus error and the anonymous
// interface{ Unwrap() error } the errors package type-asserts to.
func (w *world) interfaces() []*types.Interface {
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap",
		types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))}, nil)
	out := []*types.Interface{errType.Underlying().(*types.Interface), unwrap.Complete()}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, n := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(n).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range w.checked {
		visit(p)
	}
	return out
}

// implementsSome reports whether named (or its pointer) implements one of
// ifaces that has a method called method.
func implementsSome(named *types.Named, method string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method &&
				(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				return true
			}
		}
	}
	return false
}
