package obs_test

// Observability is part of the deterministic surface: the phase timelines a
// traced run records — and therefore the Chrome trace bytes and the per-phase
// aggregate table built from them — depend on nothing but the simulated
// program, so two fresh runs of one target must produce the same bytes.

import (
	"bytes"
	"testing"

	"o2k/internal/experiments"
	"o2k/internal/obs"
)

func traceBytes(t *testing.T, target string) (trace []byte, phaseTable string) {
	t.Helper()
	traced, err := experiments.Trace(target, experiments.QuickOpts())
	if err != nil {
		t.Fatal(err)
	}
	b := obs.NewBuilder()
	phases := make([]obs.RunPhases, len(traced))
	for i, tr := range traced {
		b.AddTimeline(tr.Label, tr.Group)
		phases[i] = obs.NewRunPhases(tr.Label, tr.Group)
	}
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("trace fails schema validation: %v", err)
	}
	return buf.Bytes(), obs.PhaseTable(phases).String()
}

func TestTraceBytesIdenticalAcrossRuns(t *testing.T) {
	for _, target := range []string{"mesh/sas", "nbody/mp"} {
		t.Run(target, func(t *testing.T) {
			refTrace, refTable := traceBytes(t, target)
			gotTrace, gotTable := traceBytes(t, target)
			if !bytes.Equal(gotTrace, refTrace) {
				t.Error("Chrome trace bytes differ between two runs")
			}
			if gotTable != refTable {
				t.Errorf("phase table differs between two runs:\n%s\n%s", gotTable, refTable)
			}
		})
	}
}
