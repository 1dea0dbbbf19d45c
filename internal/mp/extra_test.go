package mp

import (
	"testing"

	"o2k/internal/machine"
	"o2k/internal/sim"
)

func TestZeroLengthMessage(t *testing.T) {
	w, g := world(2)
	var got []float64
	g.Run(func(p *sim.Proc) {
		r := w.Rank(p)
		if r.ID() == 0 {
			Send(r, 1, 0, []float64{})
		} else {
			got = Recv[float64](r, 0, 0)
		}
	})
	if len(got) != 0 {
		t.Fatalf("zero message corrupted: %v", got)
	}
}

func TestManyOutstandingMessages(t *testing.T) {
	// Buffered semantics: a rank may send far ahead of the receiver.
	w, g := world(2)
	const n = 500
	g.Run(func(p *sim.Proc) {
		r := w.Rank(p)
		if r.ID() == 0 {
			for i := 0; i < n; i++ {
				Send(r, 1, 0, []int{i})
			}
		} else {
			for i := 0; i < n; i++ {
				if got := Recv[int](r, 0, 0); got[0] != i {
					t.Errorf("message %d out of order: %d", i, got[0])
					return
				}
			}
		}
	})
}

func TestAllgathervSomeEmpty(t *testing.T) {
	w, g := world(4)
	g.Run(func(p *sim.Proc) {
		r := w.Rank(p)
		var mine []int
		if r.ID()%2 == 0 {
			mine = []int{r.ID()}
		}
		all, offs := Allgatherv(r, mine)
		if len(all) != 2 || all[0] != 0 || all[1] != 2 {
			t.Errorf("gathered %v", all)
		}
		if offs[1] != 1 || offs[2] != 1 {
			t.Errorf("offsets %v", offs)
		}
	})
}

func TestRankAsSubsetWorld(t *testing.T) {
	// Four processors, but an MP world of two ranks driven by the even
	// processors — the hybrid pattern.
	m := machine.MustNew(machine.Default(2))
	w := NewWorld(m)
	g := sim.NewGroup(4)
	var got []float64
	g.Run(func(p *sim.Proc) {
		if p.ID()%2 != 0 {
			return
		}
		r := w.RankAs(p, p.ID()/2)
		if r.ID() == 0 {
			Send(r, 1, 5, []float64{7.5})
		} else {
			got = Recv[float64](r, 0, 5)
		}
	})
	if len(got) != 1 || got[0] != 7.5 {
		t.Fatalf("subset world exchange failed: %v", got)
	}
}

func TestRankAsOutOfRangePanics(t *testing.T) {
	m := machine.MustNew(machine.Default(2))
	w := NewWorld(m)
	g := sim.NewGroup(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.RankAs(g.Proc(0), 2)
}

func TestMessageCostMonotoneInSize(t *testing.T) {
	timeFor := func(n int) sim.Time {
		w, g := world(2)
		g.Run(func(p *sim.Proc) {
			r := w.Rank(p)
			if r.ID() == 0 {
				Send(r, 1, 0, make([]float64, n))
			} else {
				Recv[float64](r, 0, 0)
			}
		})
		return g.MaxTime()
	}
	t1, t2, t3 := timeFor(1), timeFor(100), timeFor(10000)
	if !(t1 < t2 && t2 < t3) {
		t.Fatalf("message cost not monotone: %v %v %v", t1, t2, t3)
	}
}

func TestHopsAffectLatency(t *testing.T) {
	w, g := world(64)
	var near, far sim.Time
	g.Run(func(p *sim.Proc) {
		r := w.Rank(p)
		switch r.ID() {
		case 0:
			Send(r, 2, 0, []float64{1})  // 1 hop
			Send(r, 62, 1, []float64{1}) // 5 hops
		case 2:
			Recv[float64](r, 0, 0)
			near = p.Now()
		case 62:
			Recv[float64](r, 0, 1)
			far = p.Now()
		}
	})
	if near >= far {
		t.Fatalf("hop distance ignored: near=%v far=%v", near, far)
	}
}
