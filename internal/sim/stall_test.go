package sim

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// mustPanic runs f and returns the recovered panic value, failing the test
// if f returns normally.
func mustPanic(t *testing.T, f func()) (v any) {
	t.Helper()
	defer func() { v = recover() }()
	f()
	t.Fatal("expected panic")
	return nil
}

// runStalled runs body on g, where it must deadlock, and returns the
// *ProcPanic Run re-raises. The scheduler proves a deadlock from its empty
// run queue, so Run must come back at once, not after some wall-clock
// deadline: a second is ample for the microseconds that takes.
func runStalled(t *testing.T, g *Group, body func(*Proc)) *ProcPanic {
	t.Helper()
	start := time.Now()
	v := mustPanic(t, func() { g.Run(body) })
	if d := time.Since(start); d > time.Second {
		t.Errorf("Run took %v to report the stall", d)
	}
	pp, ok := v.(*ProcPanic)
	if !ok {
		t.Fatalf("Run re-panicked with %T (%v), want *ProcPanic", v, v)
	}
	return pp
}

func TestBarrierStallNamesMissingRanks(t *testing.T) {
	b := NewBarrier(3, nil)
	var unwound []int
	pp := runStalled(t, NewGroup(3), func(p *Proc) {
		defer func() { unwound = append(unwound, p.ID()) }()
		if p.ID() == 2 {
			return // never joins: the episode can only stall
		}
		p.Advance(Time(10 * (p.ID() + 1)))
		b.Wait(p)
	})
	se, ok := pp.Value.(*StallError)
	if !ok {
		t.Fatalf("proc panic value is %T (%v), want *StallError", pp.Value, pp.Value)
	}
	if pp.Rank != 0 || se.Kind != "barrier" || se.N != 3 || !reflect.DeepEqual(se.Arrived, []int{0, 1}) {
		t.Fatalf("stall = rank %d %+v", pp.Rank, se)
	}
	if miss := se.Missing(); len(miss) != 1 || miss[0] != 2 {
		t.Fatalf("Missing() = %v, want [2]", miss)
	}
	if msg, want := se.Error(), "sim: barrier stalled: 2/3 participants (arrived [0 1], missing [2])"; msg != want {
		t.Fatalf("diagnostic %q, want %q", msg, want)
	}
	// The blocked procs are poisoned one at a time, lowest rank first.
	if !reflect.DeepEqual(unwound, []int{2, 0, 1}) {
		t.Fatalf("bodies unwound in order %v, want [2 0 1]", unwound)
	}
}

func TestBarrierStickyAfterStall(t *testing.T) {
	b := NewBarrier(2, nil)
	runStalled(t, NewGroup(2), func(p *Proc) {
		if p.ID() == 0 {
			b.Wait(p)
		}
	})
	// A late arrival at the broken barrier must fail fast, not block.
	v := mustPanic(t, func() { b.Wait(NewGroup(2).Proc(1)) })
	if _, ok := v.(*StallError); !ok {
		t.Fatalf("late Wait panicked with %T, want *StallError", v)
	}
}

func TestReducerStall(t *testing.T) {
	r := NewReducer(2, nil)
	pp := runStalled(t, NewGroup(2), func(p *Proc) {
		if p.ID() == 1 {
			return
		}
		r.Do(p, 1, func(vals []any) any { return vals[0] })
	})
	se, ok := pp.Value.(*StallError)
	if !ok || se.Kind != "reducer" {
		t.Fatalf("want reducer StallError, got %v", pp)
	}
	if miss := se.Missing(); len(miss) != 1 || miss[0] != 1 {
		t.Fatalf("Missing() = %v, want [1]", miss)
	}
}

func TestGroupRunPrefersRootCauseOverStall(t *testing.T) {
	b := NewBarrier(3, nil)
	pp := runStalled(t, NewGroup(3), func(p *Proc) {
		if p.ID() == 1 {
			panic("boom: rank 1 died")
		}
		b.Wait(p) // ranks 0 and 2 stall waiting for the dead rank
	})
	if pp.Rank != 1 || pp.Value != "boom: rank 1 died" {
		t.Fatalf("root cause not preferred: rank=%d value=%v", pp.Rank, pp.Value)
	}
	if len(pp.Stack) == 0 {
		t.Fatal("ProcPanic carries no stack")
	}
}

// A rendezvous that would have to suspend a Proc no Run is executing panics;
// one it completes alone (a 1-participant episode never waits) works.
func TestRendezvousOutsideRun(t *testing.T) {
	raw := func() *Proc { return NewGroup(2).Proc(0) }
	combine := func(vals []any) any { return vals[0] }
	var mu sync.Mutex
	for _, tc := range []struct {
		name   string
		rv     func(p *Proc)
		blocks bool
	}{
		{"barrier of 2", func(p *Proc) { NewBarrier(2, nil).Wait(p) }, true},
		{"reducer of 2", func(p *Proc) { NewReducer(2, nil).DoAs(p, 1, 0, combine) }, true},
		{"cond", func(p *Proc) { mu.Lock(); defer mu.Unlock(); new(Cond).Wait(p, &mu) }, true},
		{"barrier of 1", func(p *Proc) { NewBarrier(1, func(int) Time { return 5 }).Wait(p) }, false},
		{"reducer of 1", func(p *Proc) { NewReducer(1, func(int) Time { return 5 }).Do(p, 0, combine) }, false},
	} {
		p := raw()
		if !tc.blocks {
			if tc.rv(p); p.Now() != 5 {
				t.Errorf("%s: clock %v after the episode, want 5", tc.name, p.Now())
			}
		} else if v := mustPanic(t, func() { tc.rv(p) }); v != "sim: rendezvous outside Group.Run" {
			t.Errorf("%s panicked with %v", tc.name, v)
		}
	}
}

func TestProcPanicUnwrap(t *testing.T) {
	sentinel := errors.New("sentinel")
	pp := &ProcPanic{Rank: 0, Value: sentinel}
	if !errors.Is(pp, sentinel) {
		t.Fatal("ProcPanic does not unwrap its error value")
	}
	var se *StallError
	stall := &ProcPanic{Rank: 2, Value: &StallError{Kind: "barrier", N: 2}}
	if !errors.As(stall, &se) {
		t.Fatal("errors.As cannot reach the StallError inside a ProcPanic")
	}
}

func TestReducerRankOutOfRangePanics(t *testing.T) {
	g := NewGroup(4)
	r := NewReducer(2, nil)
	v := mustPanic(t, func() {
		r.Do(g.Proc(3), 1, func(vals []any) any { return nil })
	})
	msg, ok := v.(string)
	if !ok || !strings.Contains(msg, "rank out of range") {
		t.Fatalf("out-of-range Do panicked with %v, want rank-out-of-range message", v)
	}
}

func TestReducerSlotOutOfRangePanics(t *testing.T) {
	g := NewGroup(1)
	r := NewReducer(2, nil)
	for _, slot := range []int{-1, 2} {
		v := mustPanic(t, func() {
			r.DoAs(g.Proc(0), slot, nil, func(vals []any) any { return nil })
		})
		if msg, ok := v.(string); !ok || !strings.Contains(msg, "out of range") {
			t.Fatalf("slot %d: panicked with %v, want out-of-range message", slot, v)
		}
	}
}

func TestAvgPhaseTimeRoundsHalfUp(t *testing.T) {
	// Sum 7 over 4 procs: truncation gives 1, half-up rounding gives 2.
	g := NewGroup(4)
	g.Run(func(p *Proc) {
		p.SetPhase(PhaseCompute)
		if p.ID() == 0 {
			p.Advance(7)
		}
	})
	if got := g.AvgPhaseTime()[PhaseCompute]; got != 2 {
		t.Fatalf("avg of 7/4 = %v, want 2 (round half-up)", got)
	}
	// Sum 5 over 4 procs: 1.25 rounds down to 1.
	g2 := NewGroup(4)
	g2.Run(func(p *Proc) {
		p.SetPhase(PhaseCompute)
		if p.ID() == 0 {
			p.Advance(5)
		}
	})
	if got := g2.AvgPhaseTime()[PhaseCompute]; got != 1 {
		t.Fatalf("avg of 5/4 = %v, want 1", got)
	}
}
