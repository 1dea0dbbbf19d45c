package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"o2k/internal/experiments"
	"o2k/internal/runner"
	"o2k/internal/runner/diskcache"
)

func TestRegistryResolvesAllNames(t *testing.T) {
	o := experiments.QuickOpts()
	o.Procs = []int{1, 2}
	for _, name := range []string{"table1", "workloads", "loc", "fig2", "mesh-speedup"} {
		tabs, err := experiments.RunOnCtx(context.Background(), runner.New(0), name, o)
		if err != nil || len(tabs) == 0 {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := experiments.RunOnCtx(context.Background(), runner.New(0), "nope", o); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestListTableCoversRegistry(t *testing.T) {
	tb := listTable()
	specs := experiments.List()
	if len(tb.Rows) != len(specs)+1 { // +1 for the "all" line
		t.Fatalf("list has %d rows, want %d", len(tb.Rows), len(specs)+1)
	}
	for i, s := range specs {
		if tb.Rows[i][0] != s.Name {
			t.Fatalf("row %d = %q, want %q", i, tb.Rows[i][0], s.Name)
		}
	}
	if tb.Rows[len(tb.Rows)-1][0] != "all" {
		t.Fatal(`list must end with the "all" pseudo-experiment`)
	}
}

func TestParseProcs(t *testing.T) {
	ps, err := experiments.ParseProcs("1, 2,8")
	if err != nil || len(ps) != 3 || ps[2] != 8 {
		t.Fatalf("ParseProcs: %v %v", ps, err)
	}
	for _, bad := range []string{"", "0", "x", "1,,2", "-3"} {
		if _, err := experiments.ParseProcs(bad); err == nil {
			t.Fatalf("ParseProcs accepted %q", bad)
		}
	}
}

func TestTablesSerializeToJSON(t *testing.T) {
	o := experiments.QuickOpts()
	o.Procs = []int{1, 2}
	tabs, err := experiments.RunOnCtx(context.Background(), runner.New(0), "table1", o)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(tabs)
	if err != nil {
		t.Fatal(err)
	}
	var back []struct {
		Title  string
		Header []string
		Rows   [][]string
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Title == "" || len(back[0].Rows) == 0 {
		t.Fatalf("json round trip lost data: %+v", back)
	}
}

func TestCacheMaintenance(t *testing.T) {
	dir := t.TempDir()

	// Populate the cache by running a small experiment through an engine
	// wired exactly the way run() wires it.
	dc, err := diskcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := experiments.QuickOpts()
	o.Procs = []int{1, 2}
	eng := runner.New(1)
	eng.SetCache(dc)
	if _, err := experiments.RunOnCtx(context.Background(), eng, "mesh-speedup", o); err != nil {
		t.Fatal(err)
	}
	n, err := dc.Len()
	if err != nil || n == 0 {
		t.Fatalf("no cache entries written (n=%d, err=%v)", n, err)
	}

	if code := cacheMaintenance(dir, false, true); code != 0 {
		t.Fatalf("verify of a clean cache exited %d", code)
	}

	// Damage one entry: verify must report it (exit 1) and evict it.
	var victim string
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && victim == "" {
			victim = path
		}
		return nil
	})
	if err := os.WriteFile(victim, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := cacheMaintenance(dir, false, true); code != 1 {
		t.Fatalf("verify of a damaged cache exited %d, want 1", code)
	}
	if code := cacheMaintenance(dir, false, true); code != 0 {
		t.Fatal("verify did not evict the damaged entry")
	}

	if code := cacheMaintenance(dir, true, false); code != 0 {
		t.Fatal("clear failed")
	}
	if n, _ := dc.Len(); n != 0 {
		t.Fatalf("%d entries survived -cache-clear", n)
	}
}
