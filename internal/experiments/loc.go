package experiments

import (
	"bufio"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"o2k/internal/core"
	"o2k/internal/runner"
)

// buildTable5 adapts the LoC counter to the registry's Build signature; it
// measures source files, not simulations, so it takes nothing from the
// engine.
func buildTable5(_ context.Context, _ *runner.Engine, _ Opts) *core.Table { return Table5() }

// Table5 is the programming-effort table: lines of code of each model's
// implementation, measured from this repository's own sources (the honest
// analogue of the paper's LoC comparison — these are the files a programmer
// would have written per model).
func Table5() *core.Table {
	t := &core.Table{
		Title:  "Table 5 — Programming effort (non-blank, non-comment lines of Go)",
		Header: []string{"component", "MP", "SHMEM", "CC-SAS"},
	}
	root := repoRoot()
	count := func(rel string) string {
		n, err := countLoC(filepath.Join(root, rel))
		if err != nil {
			return "?"
		}
		return strconv.Itoa(n)
	}
	row := func(label, mpF, shF, saF string) {
		t.AddRow(label, count(mpF), count(shF), count(saF))
	}
	row("adaptive mesh app",
		"internal/apps/adaptmesh/mpapp.go",
		"internal/apps/adaptmesh/shmapp.go",
		"internal/apps/adaptmesh/sasapp.go")
	row("n-body app",
		"internal/apps/barnes/mpapp.go",
		"internal/apps/barnes/shmapp.go",
		"internal/apps/barnes/sasapp.go")
	row("stencil app (control)",
		"internal/apps/stencil/mpapp.go",
		"internal/apps/stencil/shmapp.go",
		"internal/apps/stencil/sasapp.go")
	row("conjugate gradient app",
		"internal/apps/cg/mpapp.go",
		"internal/apps/cg/shmapp.go",
		"internal/apps/cg/sasapp.go")
	row("model runtime",
		"internal/mp", "internal/shm", "internal/sas")
	return t
}

// repoRoot locates the module root from this source file's path.
func repoRoot() string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "."
	}
	// .../internal/experiments/loc.go -> repo root
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// countLoC counts non-blank, non-comment-only lines over a Go file or all
// non-test Go files of a directory.
func countLoC(path string) (int, error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	if !info.IsDir() {
		return countFile(path)
	}
	total := 0
	entries, err := os.ReadDir(path)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		n, err := countFile(filepath.Join(path, name))
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

func countFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	inBlock := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if inBlock {
			if idx := strings.Index(line, "*/"); idx >= 0 {
				inBlock = false
				line = strings.TrimSpace(line[idx+2:])
			} else {
				continue
			}
		}
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		if strings.HasPrefix(line, "/*") {
			if !strings.Contains(line, "*/") {
				inBlock = true
			}
			continue
		}
		n++
	}
	return n, sc.Err()
}
