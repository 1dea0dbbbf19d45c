package experiments

import (
	"strconv"
	"strings"
	"testing"

	"o2k/internal/core"
	"o2k/internal/runner"
)

// runOne builds a single registered experiment through the registry API.
func runOne(t *testing.T, name string, o Opts) *core.Table {
	t.Helper()
	tables, err := RunOnCtx(bg, runner.New(0), name, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("Run(%q) returned %d tables, want 1", name, len(tables))
	}
	return tables[0]
}

func TestAllExperimentsQuick(t *testing.T) {
	tables := RunAllCtx(bg, runner.New(0), QuickOpts())
	if len(tables) != 14 {
		t.Fatalf("expected 14 experiment tables, got %d", len(tables))
	}
	for _, tb := range tables {
		if tb.Title == "" || len(tb.Header) == 0 || len(tb.Rows) == 0 {
			t.Fatalf("table %q is incomplete", tb.Title)
		}
		for _, r := range tb.Rows {
			if len(r) != len(tb.Header) {
				t.Fatalf("table %q: row width %d != header %d", tb.Title, len(r), len(tb.Header))
			}
		}
		if len(tb.String()) == 0 {
			t.Fatalf("table %q renders empty", tb.Title)
		}
	}
}

func TestFig2SpeedupIncreases(t *testing.T) {
	o := QuickOpts()
	tb := runOne(t, "mesh-speedup", o)
	// Final row's CC-SAS speedup (last col) must exceed 1.5 at P=16.
	lastRow := tb.Rows[len(tb.Rows)-1]
	sp, err := strconv.ParseFloat(lastRow[6], 64)
	if err != nil {
		t.Fatal(err)
	}
	if sp < 1.5 {
		t.Fatalf("CC-SAS speedup %v at largest P", sp)
	}
	// First row is the P=1 baseline: speedups exactly 1.
	if tb.Rows[0][4] != "1.000" {
		t.Fatalf("baseline speedup not 1: %v", tb.Rows[0])
	}
}

func TestTable5LoCOrdering(t *testing.T) {
	tb := Table5()
	for _, r := range tb.Rows {
		mp, err1 := strconv.Atoi(r[1])
		sh, err2 := strconv.Atoi(r[2])
		sa, err3 := strconv.Atoi(r[3])
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("LoC row unparseable: %v", r)
		}
		if mp <= 0 || sh <= 0 || sa <= 0 {
			t.Fatalf("LoC counting failed: %v", r)
		}
		if !strings.Contains(r[0], "runtime") {
			// Application code: CC-SAS must be the shortest (the paper's
			// programming-effort finding).
			if !(sa <= sh && sa <= mp) {
				t.Errorf("%s: CC-SAS LoC (%d) not smallest (mp=%d shm=%d)", r[0], sa, mp, sh)
			}
		}
	}
}

func TestFig7MonotoneForSAS(t *testing.T) {
	o := QuickOpts()
	tb := runOne(t, "latency-sweep", o)
	// CC-SAS times (col 3) must not decrease as the latency ratio grows.
	prev := ""
	for _, r := range tb.Rows {
		if prev != "" && parseTime(t, r[3]) < parseTime(t, prev) {
			t.Fatalf("CC-SAS time decreased with worse latency: %v < %v", r[3], prev)
		}
		prev = r[3]
	}
}

func parseTime(t *testing.T, s string) float64 {
	t.Helper()
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "ms"):
		mult, s = 1e6, strings.TrimSuffix(s, "ms")
	case strings.HasSuffix(s, "us"):
		mult, s = 1e3, strings.TrimSuffix(s, "us")
	case strings.HasSuffix(s, "ns"):
		s = strings.TrimSuffix(s, "ns")
	case strings.HasSuffix(s, "s"):
		mult, s = 1e9, strings.TrimSuffix(s, "s")
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad time %q", s)
	}
	return v * mult
}

func TestFig8RemapReducesMovement(t *testing.T) {
	o := QuickOpts()
	tb := runOne(t, "loadbalance", o)
	for _, r := range tb.Rows {
		onW, _ := strconv.ParseFloat(r[3], 64)
		offW, _ := strconv.ParseFloat(r[4], 64)
		if onW > offW {
			t.Fatalf("%s: remap moved more weight (%v) than identity (%v)", r[0], onW, offW)
		}
	}
}

func TestFig12MachineClassWinners(t *testing.T) {
	tb := runOne(t, "machine-sweep", QuickOpts())
	winners := map[string]string{}
	for _, r := range tb.Rows {
		winners[r[0]] = r[4]
	}
	if winners["origin2000 (ccNUMA)"] != "CC-SAS" {
		t.Errorf("Origin2000 winner = %s, want CC-SAS", winners["origin2000 (ccNUMA)"])
	}
	if winners["ideal SMP"] != "CC-SAS" {
		t.Errorf("SMP winner = %s, want CC-SAS", winners["ideal SMP"])
	}
	if w := winners["t3e (MPP)"]; w == "CC-SAS" {
		t.Errorf("T3E winner should not be CC-SAS, got %s", w)
	}
}

func TestVerdictsAllPassQuick(t *testing.T) {
	tb := buildVerdicts(bg, runner.New(0), QuickOpts())
	for _, r := range tb.Rows {
		if r[2] != "PASS" {
			t.Errorf("%s (%s): %s — %s", r[0], r[1], r[2], r[3])
		}
	}
	if len(tb.Rows) < 10 {
		t.Fatalf("only %d verdicts", len(tb.Rows))
	}
}
