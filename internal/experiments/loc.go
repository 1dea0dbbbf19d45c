package experiments

import (
	"context"
	"fmt"
	"strconv"

	"o2k/internal/core"
	"o2k/internal/runner"
)

// locRow is one component of Table 5: the sources a programmer writes for it
// under MP, SHMEM and CC-SAS (a file, or every non-test Go file of a
// directory, relative to the module root) and their non-blank, non-comment
// line counts.
type locRow struct {
	label string
	files [3]string
	lines [3]int
}

// table5 is Table 5's measurement, checked in so the binary prints the same
// table wherever it runs. TestTable5CountsItsSources recounts the files and
// fails, printing the row to paste here, when a count is stale.
var table5 = []locRow{
	{"adaptive mesh app", [3]string{
		"internal/apps/adaptmesh/mpapp.go",
		"internal/apps/adaptmesh/shmapp.go",
		"internal/apps/adaptmesh/sasapp.go"}, [3]int{161, 196, 146}},
	{"n-body app", [3]string{
		"internal/apps/barnes/mpapp.go",
		"internal/apps/barnes/shmapp.go",
		"internal/apps/barnes/sasapp.go"}, [3]int{101, 86, 81}},
	{"stencil app (control)", [3]string{
		"internal/apps/stencil/mpapp.go",
		"internal/apps/stencil/shmapp.go",
		"internal/apps/stencil/sasapp.go"}, [3]int{72, 62, 55}},
	{"conjugate gradient app", [3]string{
		"internal/apps/cg/mpapp.go",
		"internal/apps/cg/shmapp.go",
		"internal/apps/cg/sasapp.go"}, [3]int{99, 99, 97}},
	{"model runtime", [3]string{
		"internal/mp", "internal/shm", "internal/sas"}, [3]int{182, 241, 101}},
}

// table5Verdict is V5 read off table5: whether CC-SAS needs the fewest lines
// in every row, and the evidence string its verdict line prints.
func table5Verdict() (ok bool, evidence string) {
	ok = true
	for _, r := range table5 {
		mp, sh, sa := r.lines[0], r.lines[1], r.lines[2]
		if sa > mp || sa > sh {
			ok = false
		}
		evidence += fmt.Sprintf("%s:%d/%d/%d ", r.label[:4], mp, sh, sa)
	}
	return ok, evidence
}

// buildTable5 adapts Table5 to the registry's Build signature; it measures
// source files, not simulations, so it takes nothing from the engine.
func buildTable5(_ context.Context, _ *runner.Engine, _ Opts) *core.Table { return Table5() }

// Table5 is the programming-effort table: lines of code of each model's
// implementation in this repository (the honest analogue of the paper's LoC
// comparison — these are the files a programmer would have written per
// model).
func Table5() *core.Table {
	t := &core.Table{
		Title:  "Table 5 — Programming effort (non-blank, non-comment lines of Go)",
		Header: []string{"component", "MP", "SHMEM", "CC-SAS"},
	}
	for _, r := range table5 {
		t.AddRow(r.label, strconv.Itoa(r.lines[0]), strconv.Itoa(r.lines[1]), strconv.Itoa(r.lines[2]))
	}
	return t
}
