package sim

import (
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{5, "5ns"},
		{1500, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestMaxMin(t *testing.T) {
	if Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Error("Max wrong")
	}
	if Min(3, 5) != 3 || Min(5, 3) != 3 {
		t.Error("Min wrong")
	}
}

func TestProcAdvance(t *testing.T) {
	g := NewGroup(1)
	p := g.Proc(0)
	p.Advance(10)
	if p.Now() != 10 {
		t.Fatalf("Now() = %v, want 10", p.Now())
	}
	p.AdvanceTo(5) // past: no-op
	if p.Now() != 10 {
		t.Fatalf("AdvanceTo past moved clock: %v", p.Now())
	}
	p.AdvanceTo(25)
	if p.Now() != 25 {
		t.Fatalf("AdvanceTo(25) => %v", p.Now())
	}
}

func TestProcNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative advance")
		}
	}()
	g := NewGroup(1)
	g.Proc(0).Advance(-1)
}

func TestPhaseAttribution(t *testing.T) {
	g := NewGroup(1)
	p := g.Proc(0)
	p.Advance(7) // PhaseCompute by default
	prev := p.SetPhase(PhaseComm)
	if prev != PhaseCompute {
		t.Fatalf("prev phase = %v, want compute", prev)
	}
	p.Advance(11)
	p.SetPhase(prev)
	if p.PhaseTime(PhaseCompute) != 7 {
		t.Errorf("compute time = %v, want 7", p.PhaseTime(PhaseCompute))
	}
	if p.PhaseTime(PhaseComm) != 11 {
		t.Errorf("comm time = %v, want 11", p.PhaseTime(PhaseComm))
	}
	sum := Time(0)
	for _, pt := range p.phaseTime {
		sum += pt
	}
	if sum != p.Now() {
		t.Errorf("phase times sum %v != clock %v", sum, p.Now())
	}
}

func TestPhaseNames(t *testing.T) {
	seen := map[string]bool{}
	for ph := Phase(0); ph < NumPhases; ph++ {
		s := ph.String()
		if s == "" || seen[s] {
			t.Errorf("phase %d has bad/duplicate name %q", ph, s)
		}
		seen[s] = true
	}
	if Phase(200).String() != "phase(200)" {
		t.Error("out-of-range phase name wrong")
	}
}

func TestGroupRun(t *testing.T) {
	g := NewGroup(8)
	if g.Size() != 8 {
		t.Fatalf("Size = %d", g.Size())
	}
	var mu sync.Mutex
	seen := map[int]bool{}
	g.Run(func(p *Proc) {
		p.Advance(Time(p.ID()) * 10)
		mu.Lock()
		seen[p.ID()] = true
		mu.Unlock()
	})
	if len(seen) != 8 {
		t.Fatalf("only %d procs ran", len(seen))
	}
	if g.MaxTime() != 70 {
		t.Fatalf("MaxTime = %v, want 70", g.MaxTime())
	}
}

func TestBarrierMergesClocks(t *testing.T) {
	g := NewGroup(4)
	b := NewBarrier(4, func(n int) Time { return 100 })
	g.Run(func(p *Proc) {
		p.Advance(Time(p.ID()) * 1000) // ranks at 0, 1000, 2000, 3000
		b.Wait(p)
	})
	for i := 0; i < 4; i++ {
		if got := g.Proc(i).Now(); got != 3100 {
			t.Errorf("proc %d clock = %v, want 3100", i, got)
		}
	}
	// Barrier wait is charged to PhaseSync.
	if g.Proc(0).PhaseTime(PhaseSync) != 3100 {
		t.Errorf("proc 0 sync time = %v, want 3100", g.Proc(0).PhaseTime(PhaseSync))
	}
}

func TestBarrierReusable(t *testing.T) {
	g := NewGroup(3)
	b := NewBarrier(3, nil)
	g.Run(func(p *Proc) {
		for i := 0; i < 50; i++ {
			p.Advance(Time(p.ID() + 1))
			b.Wait(p)
		}
	})
	// All clocks equal after final barrier.
	t0 := g.Proc(0).Now()
	for i := 1; i < 3; i++ {
		if g.Proc(i).Now() != t0 {
			t.Fatalf("clocks diverge: %v vs %v", g.Proc(i).Now(), t0)
		}
	}
	if t0 != 50*3 { // max advance per round is 3
		t.Fatalf("final clock = %v, want 150", t0)
	}
}

func TestBarrierHookPenalty(t *testing.T) {
	g := NewGroup(2)
	calls := 0
	b := NewBarrierHook(2, nil, func() []Time {
		calls++
		return []Time{5, 50}
	})
	g.Run(func(p *Proc) {
		p.Advance(100)
		b.Wait(p)
	})
	if calls != 1 {
		t.Fatalf("hook ran %d times, want 1", calls)
	}
	if g.Proc(0).Now() != 105 || g.Proc(1).Now() != 150 {
		t.Fatalf("penalties misapplied: %v, %v", g.Proc(0).Now(), g.Proc(1).Now())
	}
}

func TestReducerRankOrder(t *testing.T) {
	g := NewGroup(4)
	r := NewReducer(4, nil)
	got := make([][]int, 4)
	g.Run(func(p *Proc) {
		res := r.Do(p, p.ID()*p.ID(), func(vals []any) any {
			out := make([]int, len(vals))
			for i, v := range vals {
				out[i] = v.(int)
			}
			return out
		})
		got[p.ID()] = res.([]int)
	})
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if got[i][j] != j*j {
				t.Fatalf("proc %d slot %d = %d, want %d", i, j, got[i][j], j*j)
			}
		}
	}
}

func TestBarrierDeterministic(t *testing.T) {
	run := func() Time {
		g := NewGroup(6)
		b := NewBarrier(6, func(n int) Time { return Time(n) })
		g.Run(func(p *Proc) {
			for i := 0; i < 20; i++ {
				p.Advance(Time((p.ID()*7+i*3)%11 + 1))
				b.Wait(p)
			}
		})
		return g.MaxTime()
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("virtual time not deterministic: %v vs %v", got, first)
		}
	}
}

// The schedule itself: runnable processors resume in (virtual time, rank)
// order. No simulated number depends on it — clocks only merge at rendezvous,
// in an order-free way — so nothing but a direct observation pins it.
func TestRunOrderIsVirtualTimeThenRank(t *testing.T) {
	pen := []Time{5, 0, 5, 1}
	b := NewBarrierHook(4, nil, func() []Time { return pen })
	var order []int
	NewGroup(4).Run(func(p *Proc) {
		order = append(order, p.ID()) // every clock is 0: rank order
		b.Wait(p)
		order = append(order, p.ID()) // the last arriver runs on; the rest by release time
	})
	if want := []int{0, 1, 2, 3, 3, 1, 0, 2}; !reflect.DeepEqual(order, want) {
		t.Fatalf("run order %v, want %v", order, want)
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{CacheHits: 1, LocalMisses: 2, RemoteMisses: 3, CohMisses: 4,
		BytesSent: 5, MsgsSent: 6, Collectives: 7, LockOps: 8}
	var b Counters
	b.Add(&a)
	b.Add(&a)
	if b.CacheHits != 2 || b.LockOps != 16 || b.MsgsSent != 12 {
		t.Fatalf("Add wrong: %+v", b)
	}
}

func TestGroupAggregates(t *testing.T) {
	g := NewGroup(2)
	g.Run(func(p *Proc) {
		p.SetPhase(PhaseCompute)
		p.Advance(Time(100 * (p.ID() + 1)))
		p.CacheHits = uint64(p.ID() + 1)
	})
	maxPh := g.MaxPhaseTime()
	if maxPh[PhaseCompute] != 200 {
		t.Errorf("max compute = %v, want 200", maxPh[PhaseCompute])
	}
	avgPh := g.AvgPhaseTime()
	if avgPh[PhaseCompute] != 150 {
		t.Errorf("avg compute = %v, want 150", avgPh[PhaseCompute])
	}
	if c := g.TotalCounters(); c.CacheHits != 3 {
		t.Errorf("total hits = %d, want 3", c.CacheHits)
	}
}

// Property: AdvanceTo never decreases the clock and Advance is additive.
func TestAdvanceProperties(t *testing.T) {
	f := func(steps []uint16) bool {
		g := NewGroup(1)
		p := g.Proc(0)
		var sum Time
		for _, s := range steps {
			p.Advance(Time(s))
			sum += Time(s)
			if p.Now() != sum {
				return false
			}
			p.AdvanceTo(p.Now() - 1) // must be no-op (clock can't regress)
			if p.Now() != sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
