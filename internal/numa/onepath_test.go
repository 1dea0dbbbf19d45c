package numa

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// refModelSites are the functions that may test refModel besides ref.go: the
// cache selector every probing entry point goes through, the one slow path,
// the span walk (it installs lines through accessSlow itself, past any probe),
// and the coherence merge's dispatch. The footprint rule needs no test of its
// own: ChargeLoop's and ChargeLoads' cursors probe refProbe, whose one set it
// declines, and a declined ChargeLoop call takes the cursors' element loop.
var refModelSites = map[string]bool{
	"probe":         true,
	"chargeSlowAcc": true,
	"span":          true,
	"mergeEpoch":    true,
}

// TestReferenceModelEntersAtOneSlowPath pins how the reference model reaches
// the charging code: through probe, which hands every entry point refProbe,
// an empty cache, so each access falls to chargeSlowAcc and is charged there
// by chargeRef. A helper that instead tests refModel and runs a loop of its
// own under it carries a second copy of its loop, and the randomized
// differential then compares the two copies with each other instead of the
// one loop with chargeRef.
func TestReferenceModelEntersAtOneSlowPath(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || name == "ref.go" {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			ast.Inspect(d, func(n ast.Node) bool {
				if id, isID := n.(*ast.Ident); isID && id.Name == "refModel" {
					switch {
					case !ok:
						t.Errorf("%s: refModel outside a function; only ref.go declares it", name)
					case !refModelSites[fn.Name.Name]:
						t.Errorf("%s: %s tests refModel. A reference-model branch beside a fast loop is a second copy of the loop, "+
							"which the differential test can only compare with the first; probe the cache a.probe returns and "+
							"let chargeSlowAcc charge the reference model", name, fn.Name.Name)
					default:
						seen[fn.Name.Name] = true
					}
				}
				return true
			})
		}
	}
	for site := range refModelSites {
		if !seen[site] {
			t.Errorf("%s no longer tests refModel: take it off refModelSites", site)
		}
	}
}
