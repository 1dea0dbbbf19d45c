package o2k_test

import (
	"encoding/json"
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
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
	"apps/stencil.ReferenceChecksum": "oracle: sequential Jacobi digest (adaptmesh's and cg's are printed by examples/, barnes's by examples/nbody)",
	"nbody.Bodies.Energy":            "oracle: total energy, the conservation check of the integrator tests",

	// Observers: what tests read a result through.
	"numa.Array.Home":            "observer: page placement as the placement tests see it",
	"numa.Space.AllocBytes":      "observer: live array bytes (backing tests; ROADMAP item 1b's AllocBytes = Σ live arrays)",
	"obs.ValidateChrome":         "observer: the trace-schema assertion behind the -trace acceptance tests",
	"obs.ChromeTrace":            "observer: Pids/Spans/Threads, the queries the track-shape assertions are built on",
	"runner/diskcache.Cache.Len": "observer: committed entries, for the nothing-was-persisted assertions",

	// Fault seams: how tests inject failures and foreign builds.
	"runner/diskcache.NewFaultFS":      "fault seam: the injectable filesystem of the cache, lease and kill-resume suites",
	"runner/diskcache.FaultFS":         "fault seam: its Fail*/Flip*/Truncate*/Match knobs and Ops/Links counters",
	"runner/diskcache.WithFS":          "fault seam: opens a cache over a FaultFS",
	"runner/diskcache.WithFingerprint": "fault seam: opens a cache as another build, for the version-fence tests",
	"mesh.DefaultCollision":            "test workload: the two-front stress case of adaptmesh.Workload.Collision, which no experiment selects (ROADMAP item 4(ii))",
}

const maxUnreached = 12

// TestExportedNamesAreReached pins "no capability without a caller": every
// exported package-level name and method under internal/ is referenced from a
// non-test file of the root module (cmd/ and examples/ included) or of
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
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH")
	}
	w := newWorld(t)
	for _, dir := range []string{".", "bench"} {
		w.load(t, dir)
	}

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

// world is both modules type-checked into one universe of objects: module
// packages from source, in dependency order, so a use in one package and the
// declaration in another are the same types.Object.
type world struct {
	fset       *token.FileSet
	info       *types.Info
	exports    map[string]string         // std import path → export data file
	bySource   map[string]*types.Package // module packages checked so far
	checked    []*types.Package
	recvIdents map[*ast.Ident]bool
	imp        types.Importer
}

func newWorld(t *testing.T) *world {
	w := &world{
		fset:       token.NewFileSet(),
		info:       &types.Info{Uses: map[*ast.Ident]types.Object{}},
		exports:    map[string]string{},
		bySource:   map[string]*types.Package{},
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
func (w *world) load(t *testing.T, dir string) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,Export,GoFiles,Standard", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	for dec := json.NewDecoder(strings.NewReader(string(out))); ; {
		var p struct {
			ImportPath, Dir, Export string
			GoFiles                 []string
			Standard                bool
		}
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
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
				t.Fatal(err)
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
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		w.bySource[p.ImportPath] = pkg
		w.checked = append(w.checked, pkg)
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
