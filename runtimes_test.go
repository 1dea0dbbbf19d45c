package o2k_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestRuntimesTakeNoHostLocks pins the host locking of the three model
// runtimes, whose sources Table 5 counts. One scheduler goroutine runs every
// simulated processor, so no runtime state needs a host lock: internal/shm
// imports no sync at all. internal/mp and internal/sas keep exactly one
// sync.Mutex each — the mailbox's and the Lock's — and only because
// sim.Cond.Wait takes a sync.Locker to release while the processor waits.
// bench/kernels.go calls that signature, so it stays until ROADMAP item 5
// makes Cond.Wait lock-free; then these two go too.
func TestRuntimesTakeNoHostLocks(t *testing.T) {
	for pkg, want := range map[string]int{"mp": 1, "shm": 0, "sas": 1} {
		dir := filepath.Join("internal", pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		mutexes := map[string]bool{}  // fields of type sync.Mutex
		waitedOn := map[string]bool{} // fields passed as &x.f to a Wait call
		uses := 0
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == "sync" && want == 0 {
					t.Errorf("%s/%s imports sync: its state is reached by one goroutine only", pkg, name)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Field:
					if isSyncMutex(n.Type) {
						for _, id := range n.Names {
							mutexes[id.Name] = true
						}
					}
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && x.Name == "sync" {
						uses++
						if n.Sel.Name != "Mutex" {
							t.Errorf("%s/%s uses sync.%s: only the Mutex sim.Cond.Wait takes may stay", pkg, name, n.Sel.Name)
						}
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "Wait" || len(n.Args) != 2 {
						break
					}
					if u, ok := n.Args[1].(*ast.UnaryExpr); ok && u.Op == token.AND {
						if fld, ok := u.X.(*ast.SelectorExpr); ok {
							waitedOn[fld.Sel.Name] = true
						}
					}
				}
				return true
			})
		}
		if uses != want || len(mutexes) != want {
			t.Errorf("internal/%s: %d sync uses and %d sync.Mutex fields, want %d of each", pkg, uses, len(mutexes), want)
		}
		for mu := range mutexes {
			if !waitedOn[mu] {
				t.Errorf("internal/%s: sync.Mutex field %s is never handed to sim.Cond.Wait", pkg, mu)
			}
		}
	}
}

func isSyncMutex(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == "sync" && sel.Sel.Name == "Mutex"
}
