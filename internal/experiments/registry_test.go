package experiments

import (
	"context"
	"strings"
	"testing"

	"o2k/internal/runner"
)

// bg is the context of tests that exercise no cancellation.
var bg = context.Background()

func TestRegistryIndex(t *testing.T) {
	specs := List()
	if len(specs) != 15 {
		t.Fatalf("registry has %d specs, want 15", len(specs))
	}
	// Paper index order, each reachable by name and by alias.
	wantOrder := []string{"workloads", "mesh-speedup", "nbody-speedup", "breakdown",
		"loc", "memory", "latency-sweep", "loadbalance", "traffic",
		"regular-control", "page-migration", "machine-sweep", "hybrid", "cg", "verdicts"}
	for i, s := range specs {
		if s.Name != wantOrder[i] {
			t.Fatalf("spec %d = %q, want %q", i, s.Name, wantOrder[i])
		}
		if s.Title == "" || s.Build == nil {
			t.Fatalf("spec %q incomplete", s.Name)
		}
		for _, n := range append([]string{s.Name}, s.Aliases...) {
			got, ok := Lookup(n)
			if !ok || got.Name != s.Name {
				t.Fatalf("Lookup(%q) = %q, %v", n, got.Name, ok)
			}
		}
	}
	if _, ok := Lookup("fig99"); ok {
		t.Fatal("Lookup accepted an unknown name")
	}
}

func TestAliasAndNameProduceSameTable(t *testing.T) {
	o := QuickOpts()
	o.Procs = []int{1, 2}
	byAlias, _, err1 := RunOnCtx(bg, runner.New(0), "fig2", o)
	byName, _, err2 := RunOnCtx(bg, runner.New(0), "mesh-speedup", o)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if Render(byAlias) != Render(byName) {
		t.Fatal("alias and canonical name produced different tables")
	}
}

// TestParallelSerialEquivalence is the headline determinism guarantee: the
// full suite renders byte-identically with a serial pool and a wide one.
func TestParallelSerialEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite twice")
	}
	o := QuickOpts()
	serial := Render(RunAllCtx(bg, runner.New(1), o))
	parallel := Render(RunAllCtx(bg, runner.New(8), o))
	if serial != parallel {
		t.Fatal("-jobs=1 and -jobs=8 table output differ")
	}
	if strings.Count(serial, "##") != 14 {
		t.Fatalf("expected 14 rendered tables, got %d", strings.Count(serial, "##"))
	}
}

// TestSharedEngineCacheRate asserts the cross-experiment sharing the runner
// exists for: over the whole suite, at least 30% of cell requests must be
// served from cache.
func TestSharedEngineCacheRate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite")
	}
	e := runner.New(4)
	RunAllCtx(bg, e, QuickOpts())
	r := e.Report()
	if rate := r.HitRate(); rate < 0.30 {
		t.Fatalf("shared-cache hit rate %.1f%% < 30%% (unique=%d requests=%d)",
			100*rate, r.Unique, r.Requests)
	}
}

// TestSecondRunAllCacheHits: repeating an experiment on the same engine
// must simulate nothing new and reproduce the bytes exactly.
func TestSecondRunAllCacheHits(t *testing.T) {
	o := QuickOpts()
	o.Procs = []int{1, 4}
	e := runner.New(2)
	first, _, err := RunOnCtx(bg, e, "loadbalance", o)
	if err != nil {
		t.Fatal(err)
	}
	misses := e.Report().Unique
	second, _, err := RunOnCtx(bg, e, "loadbalance", o)
	if err != nil {
		t.Fatal(err)
	}
	if r := e.Report(); r.Unique != misses {
		t.Fatalf("re-run simulated %d new cells, want 0", r.Unique-misses)
	}
	if Render(first) != Render(second) {
		t.Fatal("re-run produced different bytes")
	}
}

func TestRunUnknownName(t *testing.T) {
	_, _, err := RunOnCtx(bg, runner.New(0), "nope", QuickOpts())
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// Every front end reports the same sentence, naming what is accepted.
	if _, rerr := (Request{Exp: "nope"}).Opts(); rerr == nil || rerr.Error() != err.Error() {
		t.Fatalf("Request.Opts error %v differs from RunOnCtx error %v", rerr, err)
	}
	for _, name := range []string{"all", "mesh-speedup", "fig2"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list the accepted name %q", err, name)
		}
	}
}
