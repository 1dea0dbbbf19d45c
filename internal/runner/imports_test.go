package runner

import (
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestEngineImportsNoApplication is the import boundary of the generic
// engine: the package (tests included) may import core — and the two
// storage layers below it — but no application, programming model, machine,
// or anything else of the repository. What a cell is belongs to
// internal/experiments; a new o2k import here is the inversion coming back.
func TestEngineImportsNoApplication(t *testing.T) {
	allowed := map[string]bool{
		"o2k/internal/core":             true,
		"o2k/internal/runner/diskcache": true,
		"o2k/internal/runner/lease":     true,
	}
	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	parsed := 0
	for _, f := range files {
		if f.IsDir() || !strings.HasSuffix(f.Name(), ".go") {
			continue
		}
		src, err := parser.ParseFile(token.NewFileSet(), f.Name(), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		parsed++
		for _, imp := range src.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "o2k/") && !allowed[path] {
				t.Errorf("%s imports %s: the engine may import only core, runner/diskcache and runner/lease", f.Name(), path)
			}
		}
	}
	if parsed == 0 {
		t.Fatal("no Go files parsed — the test is not running in the package directory")
	}
}
