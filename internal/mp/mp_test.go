package mp

import (
	"testing"

	"o2k/internal/machine"
	"o2k/internal/sim"
)

func world(procs int) (*World, *sim.Group) {
	m := machine.MustNew(machine.Default(procs))
	return NewWorld(m), sim.NewGroup(procs)
}

func TestSendRecvDelivers(t *testing.T) {
	w, g := world(2)
	var got []float64
	g.Run(func(p *sim.Proc) {
		r := w.Rank(p)
		if r.ID() == 0 {
			Send(r, 1, 7, []float64{1, 2, 3})
		} else {
			got = Recv[float64](r, 0, 7)
		}
	})
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("payload corrupted: %v", got)
	}
}

func TestSendBufferReusable(t *testing.T) {
	w, g := world(2)
	var got []int32
	g.Run(func(p *sim.Proc) {
		r := w.Rank(p)
		if r.ID() == 0 {
			buf := []int32{10, 20}
			Send(r, 1, 0, buf)
			buf[0] = 99 // must not affect the in-flight message
			Allreduce1(r, 0, OpSum)
		} else {
			Allreduce1(r, 0, OpSum)
			got = Recv[int32](r, 0, 0)
		}
	})
	if got[0] != 10 {
		t.Fatalf("send buffer aliased: %v", got)
	}
}

func TestRecvWaitsForVirtualDelivery(t *testing.T) {
	w, g := world(2)
	var recvClock sim.Time
	var sendClock sim.Time
	g.Run(func(p *sim.Proc) {
		r := w.Rank(p)
		if r.ID() == 0 {
			p.Advance(50 * sim.Microsecond) // sender is late
			Send(r, 1, 0, []float64{1})
			sendClock = p.Now()
		} else {
			Recv[float64](r, 0, 0)
			recvClock = p.Now()
		}
	})
	if recvClock <= sendClock {
		t.Fatalf("recv completed at %v, before/at send completion %v", recvClock, sendClock)
	}
}

func TestFIFOOrdering(t *testing.T) {
	w, g := world(2)
	var first, second []int
	g.Run(func(p *sim.Proc) {
		r := w.Rank(p)
		if r.ID() == 0 {
			Send(r, 1, 3, []int{1})
			Send(r, 1, 3, []int{2})
		} else {
			first = Recv[int](r, 0, 3)
			second = Recv[int](r, 0, 3)
		}
	})
	if first[0] != 1 || second[0] != 2 {
		t.Fatalf("FIFO violated: %v %v", first, second)
	}
}

func TestTagMatching(t *testing.T) {
	w, g := world(2)
	var a, b []int
	g.Run(func(p *sim.Proc) {
		r := w.Rank(p)
		if r.ID() == 0 {
			Send(r, 1, 5, []int{5})
			Send(r, 1, 4, []int{4})
		} else {
			// Receive in the opposite tag order.
			a = Recv[int](r, 0, 4)
			b = Recv[int](r, 0, 5)
		}
	})
	if a[0] != 4 || b[0] != 5 {
		t.Fatalf("tag matching wrong: %v %v", a, b)
	}
}

func TestSendToSelfPanics(t *testing.T) {
	w, g := world(1)
	g.Run(func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("send to self should panic")
			}
		}()
		Send(w.Rank(p), 0, 0, []int{1})
	})
}

func TestSendRecvExchange(t *testing.T) {
	w, g := world(2)
	got := make([][]int, 2)
	g.Run(func(p *sim.Proc) {
		r := w.Rank(p)
		other := 1 - r.ID()
		// Both ranks send first: buffered sends cannot deadlock.
		Send(r, other, 1, []int{r.ID() * 100})
		got[r.ID()] = Recv[int](r, other, 1)
	})
	if got[0][0] != 100 || got[1][0] != 0 {
		t.Fatalf("exchange wrong: %v", got)
	}
}

func TestAllreduce(t *testing.T) {
	w, g := world(4)
	sums := make([]int, 4)
	g.Run(func(p *sim.Proc) {
		r := w.Rank(p)
		sums[r.ID()] = Allreduce1(r, r.ID()*3, OpSum)
	})
	for i := 0; i < 4; i++ {
		if sums[i] != 18 {
			t.Errorf("rank %d sum = %v, want 18", i, sums[i])
		}
	}
}

func TestAllgatherv(t *testing.T) {
	w, g := world(3)
	alls := make([][]int, 3)
	offs := make([][]int, 3)
	g.Run(func(p *sim.Proc) {
		r := w.Rank(p)
		mine := make([]int, r.ID()+1) // variable lengths: 1, 2, 3
		for i := range mine {
			mine[i] = r.ID()*10 + i
		}
		alls[r.ID()], offs[r.ID()] = Allgatherv(r, mine)
	})
	want := []int{0, 10, 11, 20, 21, 22}
	for rk := 0; rk < 3; rk++ {
		if len(alls[rk]) != 6 {
			t.Fatalf("rank %d total len %d", rk, len(alls[rk]))
		}
		for i, v := range want {
			if alls[rk][i] != v {
				t.Fatalf("rank %d slot %d = %d, want %d", rk, i, alls[rk][i], v)
			}
		}
		if offs[rk][0] != 0 || offs[rk][1] != 1 || offs[rk][2] != 3 {
			t.Fatalf("rank %d offsets %v", rk, offs[rk])
		}
	}
}

func TestAlltoallv(t *testing.T) {
	w, g := world(4)
	got := make([][][]int, 4)
	g.Run(func(p *sim.Proc) {
		r := w.Rank(p)
		chunks := make([][]int, 4)
		for d := 0; d < 4; d++ {
			chunks[d] = []int{r.ID()*100 + d}
		}
		got[r.ID()] = Alltoallv(r, chunks)
	})
	for me := 0; me < 4; me++ {
		for src := 0; src < 4; src++ {
			if got[me][src][0] != src*100+me {
				t.Fatalf("rank %d from %d: %v", me, src, got[me][src])
			}
		}
	}
}

func TestAllreduceMergesRanks(t *testing.T) {
	w, g := world(4)
	g.Run(func(p *sim.Proc) {
		r := w.Rank(p)
		p.Advance(sim.Time(r.ID()) * sim.Millisecond)
		Allreduce1(r, 0, OpSum)
	})
	t0 := g.Proc(0).Now()
	for i := 1; i < 4; i++ {
		if g.Proc(i).Now() != t0 {
			t.Fatalf("clocks unequal after barrier")
		}
	}
	if t0 <= 3*sim.Millisecond {
		t.Fatalf("collective cost missing: %v", t0)
	}
}

func TestCommChargesCurrentPhase(t *testing.T) {
	// Communication costs are attributed to the caller's current phase, so
	// an exchange performed inside an application phase (e.g. remap) is
	// charged to that phase.
	w, g := world(2)
	g.Run(func(p *sim.Proc) {
		r := w.Rank(p)
		p.SetPhase(sim.PhaseRemap)
		if r.ID() == 0 {
			Send(r, 1, 0, make([]float64, 1000))
		} else {
			Recv[float64](r, 0, 0)
		}
	})
	if g.Proc(0).PhaseTime(sim.PhaseRemap) == 0 {
		t.Error("sender cost not attributed to current phase")
	}
	if g.Proc(1).PhaseTime(sim.PhaseRemap) == 0 {
		t.Error("receiver cost not attributed to current phase")
	}
	if g.Proc(0).BytesSent != 8000 {
		t.Errorf("bytes sent = %d", g.Proc(0).BytesSent)
	}
	if g.Proc(0).MsgsSent != 1 {
		t.Errorf("msgs sent = %d", g.Proc(0).MsgsSent)
	}
}

func TestDeterministicTiming(t *testing.T) {
	run := func() sim.Time {
		w, g := world(8)
		g.Run(func(p *sim.Proc) {
			r := w.Rank(p)
			for iter := 0; iter < 10; iter++ {
				next := (r.ID() + 1) % 8
				prev := (r.ID() + 7) % 8
				Send(r, next, iter, []float64{float64(iter)})
				Recv[float64](r, prev, iter)
				Allreduce1(r, float64(r.ID()), OpSum)
			}
		})
		return g.MaxTime()
	}
	first := run()
	for i := 0; i < 4; i++ {
		if got := run(); got != first {
			t.Fatalf("MP timing nondeterministic: %v vs %v", got, first)
		}
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	w, g := world(2)
	g.Run(func(p *sim.Proc) {
		r := w.Rank(p)
		if r.ID() == 0 {
			Send(r, 1, 0, []int{1})
		} else {
			defer func() {
				if recover() == nil {
					t.Error("expected type-mismatch panic")
				}
			}()
			Recv[float64](r, 0, 0)
		}
	})
}

func TestRankOutOfWorldPanics(t *testing.T) {
	m := machine.MustNew(machine.Default(2))
	w := NewWorld(m)
	g := sim.NewGroup(4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic binding proc 3 to world of 2")
		}
	}()
	w.Rank(g.Proc(3))
}
