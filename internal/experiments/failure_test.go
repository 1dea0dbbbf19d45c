package experiments

import (
	"context"
	"errors"
	"fmt"
	"slices"
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

	tabs, failed, err := RunOnCtx(bg, e, "mesh-speedup", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 3 { // the run cells the table asked for, not their plan cell
		t.Fatalf("the request lists %d failed cells, want 3: %v", len(failed), failed)
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
// served without asking whether its plan cell would still resolve, and the
// request, which asked for run cells only, has no failed cell.
func TestWarmRunCellIsServedDespitePoisonedPlan(t *testing.T) {
	o := QuickOpts()
	maxP := o.Procs[len(o.Procs)-1]
	dir := t.TempDir()
	render := func(e *runner.Engine) string {
		tabs, failed, err := RunOnCtx(bg, e, "mesh-speedup", o)
		if err != nil || len(failed) != 0 {
			t.Fatalf("err = %v, failed cells %v: want none", err, failed)
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

	tabs, _, err := RunOnCtx(bg, e, "mesh-speedup", o)
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
		tabs, _, err := RunOnCtx(bg, e, "all", o)
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

// V0 gates every cell the verdict table requests, and no other row passes on
// a failed cell. Each run cell a healthy quick build requests is poisoned in
// turn: V0 must FAIL naming the injected fault, every row whose verdict or
// evidence moved must FAIL, and some row besides V0 must move, so the table
// requests no cell that no row reads.
func TestVerdictGateCoversEveryEvidenceCell(t *testing.T) {
	o := QuickOpts()
	healthy := runner.New(2)
	want := buildVerdicts(bg, healthy, o).Rows
	for _, c := range healthy.Report().Cells {
		if c.Kind != runner.MetricsCodec.Kind {
			continue
		}
		t.Run(c.Label+" "+c.Key[:8], func(t *testing.T) {
			e := runner.New(2)
			e.Do(c.Key, "poisoned", func(context.Context) (any, error) { return nil, errors.New("injected fault") })
			got := buildVerdicts(bg, e, o).Rows
			if v0 := got[0]; v0[2] != "FAIL" || !strings.HasPrefix(v0[3], "1 failed cell(s)") ||
				!strings.HasSuffix(v0[3], " FAILED(injected fault)") {
				t.Errorf("V0 = %s %q, want FAIL naming the one injected fault", v0[2], v0[3])
			}
			changed := 0
			for i, r := range got[1:] {
				if slices.Equal(r, want[i+1]) {
					continue
				}
				changed++
				if r[2] != "FAIL" {
					t.Errorf("%s passed on a failed evidence cell: %q", r[0], r[3])
				}
			}
			if changed == 0 {
				t.Error("the table requests this cell, but no row besides V0 reads it")
			}
		})
	}
}

// On an engine cancelled before the table is built, every cell the table
// requests fails, whether its wait ends on the cancellation or on an outcome
// its publisher already published. V0 counts exactly those cells, the same
// count on every build: the run cells buildVerdicts asks for itself (the
// report lists each under the metrics codec), none of the plan cells their
// Prepare stages requested.
func TestVerdictGateCountsCancelledCellsTheSameEveryBuild(t *testing.T) {
	o := QuickOpts()
	var counts []int
	for range 5 {
		ctx, cancel := context.WithCancel(bg)
		cancel()
		e := runner.NewWithPolicy(ctx, 2, runner.Policy{})
		v0 := buildVerdicts(bg, e, o).Rows[0]
		var n int
		if _, err := fmt.Sscanf(v0[3], "%d failed cell(s)", &n); err != nil || v0[2] != "FAIL" {
			t.Fatalf("V0 = %s %q on a cancelled engine, want FAIL with a count", v0[2], v0[3])
		}
		// The first failure reads as every entry read off a cancelled cell
		// does, not as its wrapped error text.
		if !strings.HasSuffix(v0[3], " FAILED(cancelled)") {
			t.Errorf("V0 = %q, want its first failure rendered FAILED(cancelled)", v0[3])
		}
		runs := 0
		for _, c := range e.Report().Cells {
			if c.Kind == runner.MetricsCodec.Kind {
				runs++
			}
		}
		if n != runs {
			t.Errorf("V0 counts %d failed cells, but the table requested %d run cells", n, runs)
		}
		counts = append(counts, n)
	}
	if slices.Min(counts) != slices.Max(counts) {
		t.Fatalf("V0 counted %v on five identical cancelled builds, want one count", counts)
	}
}

// The ledger holds one entry per failed cell key a request asked for:
// labels repeat, so two failed cells under one label are two entries;
// entries list by label, then key; a failed compute, a cached failure, a
// Prepare stage failing on its own and a wait the request's cancellation
// ended are all recorded. A dependency is recorded only as the failure of
// the cell that requested it, and a nested ledger's entries reach the outer
// one too.
func TestLedgerRecordsFailedRequestsByKey(t *testing.T) {
	e := runner.New(2)
	outer, failed := track(bg)
	inner, innerFailed := track(outer)
	boom := errors.New("boom")
	ok := func() int { return 1 }
	fail := func(context.Context) (func() int, error) { return nil, boom }
	e.Do("k0", "poisoned", func(context.Context) (any, error) { return nil, boom })

	cellOf(outer, e, "k3", "mesh MP P=16", nil, fail)
	cellOf(outer, e, "k1", "mesh MP P=16", nil, leaf(func() int { panic("bug") }))
	cellOf(outer, e, "k0", "n-body MP P=16", nil, leaf(ok)) // a cached failure
	cellOf(outer, e, "k2", "cg MP P=16", nil, leaf(ok))
	cellOf(outer, e, "k1", "mesh MP P=16", nil, leaf(ok)) // a memo hit of a failed cell: no new entry
	cellOf(inner, e, "k4", "cg plan P=16", nil, fail)
	// A run cell whose Prepare requests a failing dependency.
	cellOf(outer, e, "k5", "cg MP P=8", nil, func(ctx context.Context) (func() int, error) {
		_, err := cellOf(ctx, e, "k6", "cg plan P=8", nil, fail)
		return ok, err
	})
	// A wait the request's own cancellation ends: the compute blocks until
	// the request has left.
	release := make(chan struct{})
	cctx, cancel := context.WithCancel(outer)
	cancel()
	cellOf(cctx, e, "k7", "stencil MP P=1", nil, leaf(func() int { <-release; return 1 }))
	close(release)

	keys := func(fs []Failure) (got []string) {
		for _, f := range fs {
			got = append(got, f.Key)
		}
		return got
	}
	if got, want := keys(failed()), []string{"k5", "k4", "k1", "k3", "k0", "k7"}; !slices.Equal(got, want) {
		t.Fatalf("ledger lists %v, want %v", got, want)
	}
	if got, want := keys(innerFailed()), []string{"k4"}; !slices.Equal(got, want) {
		t.Fatalf("nested ledger lists %v, want %v", got, want)
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
	tabs, _, err := RunOnCtx(bg, e, "mesh-speedup", o)
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
