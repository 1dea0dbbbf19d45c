package obs_test

// The -trace acceptance test: tracing a real adaptmesh run AND a real
// n-body run must produce a Chrome trace-event file that validates against
// the schema (asserted here, not by hand) and carries at least one track
// per simulated processor, plus host-side runner-cell spans collected from
// a live engine via the hook seam.

import (
	"bytes"
	"context"
	"testing"

	"o2k/internal/experiments"
	"o2k/internal/obs"
	"o2k/internal/runner"
)

func buildRealTrace(t *testing.T, target, exp string) (*obs.ChromeTrace, []experiments.TracedRun) {
	t.Helper()
	o := experiments.QuickOpts()

	// A real engine run, with the collector attached, supplies the
	// host-side cell events.
	col := &obs.Collector{}
	eng := runner.New(2)
	eng.SetHook(col.Hook())
	if _, _, err := experiments.RunOnCtx(context.Background(), eng, exp, o); err != nil {
		t.Fatal(err)
	}
	if col.Len() == 0 {
		t.Fatalf("experiment %s produced no runner events", exp)
	}

	traced, err := experiments.Trace(context.Background(), eng, target, o)
	if err != nil {
		t.Fatal(err)
	}
	b := obs.NewBuilder()
	for _, tr := range traced {
		b.AddTimeline(tr.Label, tr.Group)
	}
	b.AddRunnerTrack(col.Events())

	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := obs.ValidateChrome(buf.Bytes())
	if err != nil {
		t.Fatalf("%s trace failed Chrome schema validation: %v", target, err)
	}
	return tr, traced
}

func assertTrackShape(t *testing.T, tr *obs.ChromeTrace, traced []experiments.TracedRun) {
	t.Helper()
	pids := tr.Pids()
	if len(pids) != len(traced)+1 {
		t.Fatalf("trace has pids %v, want one per traced run plus the host", pids)
	}
	for i, run := range traced {
		pid := i + 1
		procs := run.Group.Size()
		if threads := tr.Threads(pid); len(threads) < procs {
			t.Errorf("%s: %d threads, want >= one per simulated proc (%d)",
				run.Label, len(threads), procs)
		}
		if len(tr.Spans(pid)) == 0 {
			t.Errorf("%s: timeline has no phase spans", run.Label)
		}
	}
	if len(tr.Spans(0)) == 0 {
		t.Error("host process has no runner-cell spans")
	}
}

func TestTraceMeshEndToEnd(t *testing.T) {
	tr, traced := buildRealTrace(t, "mesh", "mesh-speedup")
	if len(traced) != 3 {
		t.Fatalf("mesh traced %d runs, want all 3 models", len(traced))
	}
	assertTrackShape(t, tr, traced)
}

func TestTraceNBodyEndToEnd(t *testing.T) {
	tr, traced := buildRealTrace(t, "nbody/mp", "nbody-speedup")
	if len(traced) != 1 {
		t.Fatalf("nbody/mp traced %d runs, want 1", len(traced))
	}
	assertTrackShape(t, tr, traced)
}
