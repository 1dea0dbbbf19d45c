package obs

import (
	"math"
	"strings"
	"testing"

	"o2k/internal/sim"
)

// fixtureGroup drives three processors by hand so every aggregate below is
// checkable on paper:
//
//	proc  compute  sync
//	p0    100ns    1ns
//	p1    300ns    2ns
//	p2    200ns    2ns
//
// compute: min 100, max 300, sum 600, mean 200, imbalance 300*3/600 = 1.5.
// sync:    min 1, max 2, sum 5, mean round(5/3) = 2, imbalance 2*3/5 = 1.2.
// clocks:  101, 302, 202 → min 101, max 302, sum 605, mean round(605/3) =
// 202 (rounds up from 201.67), imbalance 302*3/605 = 906/605.
func fixtureGroup() *sim.Group {
	g := sim.NewGroup(3)
	comp := []sim.Time{100, 300, 200}
	sync := []sim.Time{1, 2, 2}
	for i := 0; i < 3; i++ {
		p := g.Proc(i)
		p.SetPhase(sim.PhaseCompute)
		p.Advance(comp[i])
		p.SetPhase(sim.PhaseSync)
		p.Advance(sync[i])
	}
	return g
}

func TestGroupPhasesHandComputed(t *testing.T) {
	stats := GroupPhases(fixtureGroup())
	if len(stats) != 2 {
		t.Fatalf("got %d phases, want 2 (compute, sync): %+v", len(stats), stats)
	}
	want := []PhaseStat{
		{Phase: "compute", Min: 100, Max: 300, Mean: 200, Imbalance: 1.5},
		{Phase: "sync", Min: 1, Max: 2, Mean: 2, Imbalance: 1.2},
	}
	for i, w := range want {
		got := stats[i]
		if got.Phase != w.Phase || got.Min != w.Min || got.Max != w.Max || got.Mean != w.Mean {
			t.Errorf("%s: got %+v, want %+v", w.Phase, got, w)
		}
		if math.Abs(got.Imbalance-w.Imbalance) > 1e-12 {
			t.Errorf("%s: imbalance = %v, want %v", w.Phase, got.Imbalance, w.Imbalance)
		}
	}
}

// A phase's mean over processors rounds half-up: plain integer division
// would truncate each mean by up to n-1 time units, biasing every phase low.
func TestPhaseMeanRoundsHalfUp(t *testing.T) {
	// Sum 7 over 4 procs: truncation gives 1, half-up rounding gives 2. Sum
	// 5 over 4 procs: 1.25 rounds down to 1.
	for sum, want := range map[sim.Time]sim.Time{7: 2, 5: 1} {
		g := sim.NewGroup(4)
		p := g.Proc(0)
		p.SetPhase(sim.PhaseCompute)
		p.Advance(sum)
		if got := GroupPhases(g)[0].Mean; got != want {
			t.Errorf("mean of %v/4 = %v, want %v (round half-up)", sum, got, want)
		}
	}
}

func TestRunPhasesClockAggregate(t *testing.T) {
	rp := NewRunPhases("fixture P=3", fixtureGroup())
	if rp.Procs != 3 || rp.Total != 302 {
		t.Fatalf("Procs/Total = %d/%d, want 3/302", rp.Procs, rp.Total)
	}
	c := rp.Clock
	if c.Phase != "TOTAL" || c.Min != 101 || c.Max != 302 || c.Mean != 202 {
		t.Fatalf("clock aggregate = %+v", c)
	}
	if want := 302.0 * 3 / 605; math.Abs(c.Imbalance-want) > 1e-12 {
		t.Fatalf("clock imbalance = %v, want %v", c.Imbalance, want)
	}
}

func TestPhaseTableShape(t *testing.T) {
	runs := []RunPhases{NewRunPhases("fixture P=3", fixtureGroup())}
	tb := PhaseTable(runs)
	if len(tb.Rows) != 3 { // compute, sync, TOTAL
		t.Fatalf("got %d rows, want 3:\n%s", len(tb.Rows), tb)
	}
	last := tb.Rows[len(tb.Rows)-1]
	if last[1] != "TOTAL" {
		t.Fatalf("last row is %v, want the TOTAL row", last)
	}
	if !strings.Contains(tb.String(), "1.500") {
		t.Fatalf("rendered table lost the compute imbalance factor:\n%s", tb)
	}
}

// A phase every processor spent identical time in must aggregate to
// imbalance exactly 1.0 — the balanced baseline readers compare against.
func TestBalancedPhaseIsExactlyOne(t *testing.T) {
	g := sim.NewGroup(4)
	for i := 0; i < 4; i++ {
		p := g.Proc(i)
		p.SetPhase(sim.PhaseRemap)
		p.Advance(777)
	}
	stats := GroupPhases(g)
	if len(stats) != 1 || stats[0].Imbalance != 1.0 {
		t.Fatalf("balanced phase: %+v", stats)
	}
}
