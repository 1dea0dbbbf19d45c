package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/runner"
	"o2k/internal/sim"
)

// poisonMeshMP pre-fails the mesh MP run cell at the given processor count
// by publishing an error under the exact key the typed helper would use —
// the engine then serves the cached failure to the experiment builder.
func poisonMeshMP(e *runner.Engine, o Opts, procs int, err error) {
	key := core.CellKey("mesh/run", core.MP, machine.Default(procs), o.MeshW)
	e.Do(key, "poisoned mesh MP", func(context.Context) (any, error) { return nil, err })
}

// poisonMeshPlans pre-fails the mesh plan cell at the given processor count
// the same way; every mesh run cell at that count depends on it.
func poisonMeshPlans(e *runner.Engine, o Opts, procs int, err error) {
	e.Do(meshPlanKey(o.MeshW, procs), "poisoned mesh plans", func(context.Context) (any, error) { return nil, err })
}

// A failed plan cell is the outcome of every run cell that has to be
// computed from it — rendered as the dependency's failure behind the
// dependency's name, without starting a run — and of nothing else.
func TestPoisonedPlanFailsTheRunsComputedFromIt(t *testing.T) {
	o := QuickOpts()
	maxP := o.Procs[len(o.Procs)-1]
	e := runner.New(2)
	poisonMeshPlans(e, o, maxP, errors.New("injected fault"))

	tabs, err := RunOnCtx(bg, e, "mesh-speedup", o)
	if err != nil {
		t.Fatal(err)
	}
	rows := tabs[0].Rows
	for col, got := range rows[len(rows)-1][1:] {
		if got != "FAILED(mesh plans: injected fault)" {
			t.Fatalf("column %d at P=%d = %q, want FAILED(mesh plans: injected fault)", col+1, maxP, got)
		}
	}
	for _, r := range rows[:len(rows)-1] {
		if strings.Contains(strings.Join(r, " "), "FAILED") {
			t.Fatalf("a processor count with healthy plans degraded: %v", r)
		}
	}
	if r := e.Report(); r.Failures != 4 { // the plan cell and its three run cells
		t.Fatalf("Failures = %d, want 4", r.Failures)
	}
}

// Dependencies are demand-driven: a run cell that is already on disk is
// served without asking whether its plan cell would still resolve.
func TestWarmRunCellIsServedDespitePoisonedPlan(t *testing.T) {
	o := QuickOpts()
	maxP := o.Procs[len(o.Procs)-1]
	dir := t.TempDir()
	render := func(e *runner.Engine) string {
		tabs, err := RunOnCtx(bg, e, "mesh-speedup", o)
		if err != nil {
			t.Fatal(err)
		}
		return Render(tabs)
	}
	fill := runner.New(2)
	fill.SetCache(openCache(t, dir))
	ref := render(fill)

	e := runner.New(2)
	e.SetCache(openCache(t, dir))
	poisonMeshPlans(e, o, maxP, errors.New("injected fault"))
	if got := render(e); got != ref {
		t.Fatalf("warm run cells were not served past a poisoned plan cell:\n%s", got)
	}
	if r := e.Report(); r.Failures != 1 || r.PlanCells != 0 { // only the poisoned cell itself
		t.Fatalf("Failures=%d PlanCells=%d, want 1 and 0", r.Failures, r.PlanCells)
	}
}

func TestFailedCellRendersAsFailedEntry(t *testing.T) {
	o := QuickOpts()
	maxP := o.Procs[len(o.Procs)-1]
	e := runner.New(2)
	poisonMeshMP(e, o, maxP, errors.New("injected fault"))

	tabs, err := RunOnCtx(bg, e, "mesh-speedup", o)
	if err != nil {
		t.Fatal(err)
	}
	tb := tabs[0]
	last := tb.Rows[len(tb.Rows)-1]
	if last[1] != "FAILED(injected fault)" {
		t.Fatalf("poisoned MP entry = %q, want FAILED(injected fault)", last[1])
	}
	if last[4] != "FAILED(injected fault)" {
		t.Fatalf("speedup derived from poisoned cell = %q, want FAILED", last[4])
	}
	// The other models' entries at the same P are untouched.
	if strings.Contains(last[2], "FAILED") || strings.Contains(last[3], "FAILED") {
		t.Fatalf("healthy entries corrupted: %v", last)
	}
	if r := e.Report(); r.Failures != 1 {
		t.Fatalf("Failures = %d, want 1", r.Failures)
	}
}

func TestFailedRunIsByteStableAcrossJobs(t *testing.T) {
	o := QuickOpts()
	maxP := o.Procs[len(o.Procs)-1]
	render := func(jobs int) string {
		e := runner.New(jobs)
		poisonMeshMP(e, o, maxP, errors.New("injected fault"))
		tabs, err := RunOnCtx(bg, e, "all", o)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, tb := range tabs {
			b.WriteString(tb.String())
		}
		return b.String()
	}
	if a, b := render(1), render(8); a != b {
		t.Fatal("degraded output differs between -jobs 1 and -jobs 8")
	}
}

func TestVerdictsFlagFailedEvidence(t *testing.T) {
	o := QuickOpts()
	maxP := o.Procs[len(o.Procs)-1]
	e := runner.New(2)
	poisonMeshMP(e, o, maxP, errors.New("injected fault"))

	tb := buildVerdicts(context.Background(), e, o)
	if tb.Rows[0][0] != "V0" {
		t.Fatalf("first verdict is %q, want the V0 evidence gate", tb.Rows[0][0])
	}
	if tb.Rows[0][2] != "FAIL" {
		t.Fatalf("V0 = %s with a poisoned evidence cell, want FAIL", tb.Rows[0][2])
	}
	if !strings.Contains(tb.Rows[0][3], "FAILED(injected fault)") {
		t.Fatalf("V0 evidence %q does not name the failure", tb.Rows[0][3])
	}
}

// A workload with zero adaptation cycles / zero time steps yields empty plan
// sequences; Table 1 must degrade those rows to FAILED(...) instead of
// panicking on the len()-divisions in its averages.
func TestTable1EmptyPlansDegradeToFailedRows(t *testing.T) {
	o := QuickOpts()
	o.MeshW.Cycles = 0
	o.NBodyW.Steps = 0
	tb := buildTable1(context.Background(), runner.New(1), o)
	rows := map[string][]string{}
	for _, r := range tb.Rows {
		rows[r[0]] = r
	}
	for _, app := range []string{"adaptive mesh", "barnes-hut n-body"} {
		r, ok := rows[app]
		if !ok {
			t.Fatalf("table 1 lost the %q row: %v", app, tb.Rows)
		}
		if !strings.Contains(r[1], "FAILED(") || !strings.Contains(r[1], "empty plan sequence") {
			t.Fatalf("%s row = %q, want FAILED(empty plan sequence ...)", app, r[1])
		}
	}
	// The healthy rows still render normally.
	if r := rows["conjugate gradient"]; strings.Contains(r[1], "FAILED") {
		t.Fatalf("cg row degraded: %v", r)
	}
}

// panicOnProc is the simulated processor body's frame the failed cell's
// stack must name.
func panicOnProc(p *sim.Proc) { panic(fmt.Sprintf("proc %d: simulated body bug", p.ID())) }

// A simulated processor's panic fails its cell, and the cell's report carries
// the stack the body panicked on, not that of the scheduler which re-raised
// it on the cell's goroutine. The table shows only the failure's label.
func TestProcPanicReportsTheBodysStack(t *testing.T) {
	o := QuickOpts()
	maxP := o.Procs[len(o.Procs)-1]
	e := runner.New(1)
	key := core.CellKey("mesh/run", core.MP, machine.Default(maxP), o.MeshW)
	e.Do(key, "panicking mesh MP", func(context.Context) (any, error) {
		sim.NewGroup(maxP).Run(func(p *sim.Proc) {
			if p.ID() == 1 {
				panicOnProc(p)
			}
		})
		return nil, nil
	})
	tabs, err := RunOnCtx(bg, e, "mesh-speedup", o)
	if err != nil {
		t.Fatal(err)
	}
	if out, want := Render(tabs), "FAILED(panic: sim: proc 1 panicked: proc 1: simulated body bug)"; !strings.Contains(out, want) {
		t.Fatalf("no %s in:\n%s", want, out)
	}
	for _, c := range e.Report().Cells {
		if c.Key != key {
			continue
		}
		if !strings.Contains(c.Stack, "experiments.panicOnProc") {
			t.Fatalf("the failed cell's stack does not name the panicking body:\n%s", c.Stack)
		}
		return
	}
	t.Fatal("the panicked cell is not in the report")
}

func TestBuildSafeRecoversBuilderPanic(t *testing.T) {
	s := Spec{Name: "boom", Title: "panicking builder",
		Build: func(context.Context, *runner.Engine, Opts) *core.Table { panic("kaboom") }}
	tb := buildSafe(context.Background(), s, runner.New(1), QuickOpts())
	if tb == nil || len(tb.Rows) != 1 || !strings.Contains(tb.Rows[0][0], "builder panic: kaboom") {
		t.Fatalf("buildSafe did not degrade the panic: %+v", tb)
	}
}
