package sas

import (
	"testing"

	"o2k/internal/machine"
	"o2k/internal/numa"
	"o2k/internal/sim"
)

func world(procs int) (*World, *sim.Group, *machine.Machine) {
	m := machine.MustNew(machine.Default(procs))
	sp := numa.NewSpace(m)
	return NewWorld(m, sp), sim.NewGroup(procs), m
}

func TestSharedWriteReadAcrossBarrier(t *testing.T) {
	w, g, _ := world(2)
	a := NewArray[float64](w, 64)
	var got float64
	g.Run(func(p *sim.Proc) {
		c := w.Ctx(p)
		if c.ID() == 0 {
			a.Store(p, 5, 1.25)
		}
		c.Barrier()
		if c.ID() == 1 {
			got = a.Load(p, 5)
		}
	})
	if got != 1.25 {
		t.Fatalf("shared data lost: %v", got)
	}
}

func TestBarrierInvalidatesWrittenLines(t *testing.T) {
	w, g, _ := world(2)
	a := NewArray[float64](w, 64)
	a.PlaceUniform(0)
	g.Run(func(p *sim.Proc) {
		c := w.Ctx(p)
		// Both warm line 0.
		a.Load(p, 0)
		a.Load(p, 0)
		c.Barrier()
		if c.ID() == 0 {
			a.Store(p, 0, 9)
		}
		c.Barrier()
		if c.ID() == 1 {
			misses := p.LocalMisses + p.RemoteMisses
			if v := a.Load(p, 0); v != 9 {
				t.Errorf("read %v, want 9", v)
			}
			if p.LocalMisses+p.RemoteMisses != misses+1 {
				t.Error("reader should take a coherence miss after writer's barrier")
			}
		}
	})
}

func TestRange(t *testing.T) {
	w, g, _ := world(4)
	covered := make([]bool, 103)
	g.Run(func(p *sim.Proc) {
		c := w.Ctx(p)
		lo, hi := c.Range(103)
		for i := lo; i < hi; i++ {
			covered[i] = true // disjoint by construction
		}
	})
	for i, ok := range covered {
		if !ok {
			t.Fatalf("iteration %d not covered", i)
		}
	}
}

func TestLockMutualExclusionAndCost(t *testing.T) {
	w, g, m := world(4)
	l := NewLock(w)
	counter := 0
	g.Run(func(p *sim.Proc) {
		c := w.Ctx(p)
		for i := 0; i < 100; i++ {
			l.Acquire(c)
			counter++
			p.Advance(10)
			l.Release(c)
		}
	})
	if counter != 400 {
		t.Fatalf("lost updates: %d", counter)
	}
	// Virtual time must reflect serialization: 400 critical sections of 10ns
	// plus acquire costs can't all overlap.
	if g.MaxTime() < 400*10 {
		t.Fatalf("critical sections overlapped in virtual time: %v", g.MaxTime())
	}
	if g.Proc(0).LockOps != 100 {
		t.Fatalf("lock ops = %d", g.Proc(0).LockOps)
	}
	_ = m
}

func TestAllreduceAndExscan(t *testing.T) {
	w, g, _ := world(4)
	g.Run(func(p *sim.Proc) {
		c := w.Ctx(p)
		if s := Allreduce1(c, float64(c.ID()+1), OpSum); s != 10 {
			t.Errorf("sum = %v", s)
		}
		if s := Allreduce1(c, -c.ID(), OpSum); s != -6 {
			t.Errorf("int sum = %v", s)
		}
		before, total := Exscan(c, c.ID())
		wantBefore := 0
		for i := 0; i < c.ID(); i++ {
			wantBefore += i
		}
		if before != wantBefore || total != 6 {
			t.Errorf("exscan: %d %d", before, total)
		}
	})
}

func TestSasBarrierCheaperThanMPBarrier(t *testing.T) {
	// The hardware-supported SAS barrier must be cheaper than the
	// software-tree MP barrier at the same processor count.
	m := machine.MustNew(machine.Default(32))
	stages := m.LogStages(32)
	sasCost := m.Cfg.SasBarrierBase + sim.Time(stages)*m.Cfg.SasBarrierHop
	mpCost := sim.Time(stages) * m.Cfg.MPBarrierHop
	if sasCost >= mpCost {
		t.Fatalf("sas barrier %v !< mp barrier %v", sasCost, mpCost)
	}
}

func TestRemotePlacementCostsMore(t *testing.T) {
	w, g, _ := world(8)
	local := NewArray[float64](w, 4096)
	remote := NewArray[float64](w, 4096)
	local.PlaceUniform(0)
	remote.PlaceUniform(6) // different node from proc 0
	var localT, remoteT sim.Time
	g.Run(func(p *sim.Proc) {
		c := w.Ctx(p)
		if c.ID() != 0 {
			return
		}
		t0 := p.Now()
		local.TouchRange(p, 0, 4096, false)
		localT = p.Now() - t0
		t0 = p.Now()
		remote.TouchRange(p, 0, 4096, false)
		remoteT = p.Now() - t0
	})
	if localT >= remoteT {
		t.Fatalf("local sweep %v !< remote sweep %v", localT, remoteT)
	}
}

func TestDeterministicTiming(t *testing.T) {
	run := func() sim.Time {
		w, g, _ := world(8)
		a := NewArray[float64](w, 8192)
		a.PlaceBlock()
		g.Run(func(p *sim.Proc) {
			c := w.Ctx(p)
			for iter := 0; iter < 5; iter++ {
				lo, hi := c.Range(8192)
				for i := lo; i < hi; i++ {
					a.Store(p, i, float64(i+iter))
				}
				c.Barrier()
				// Read a neighbour's block: remote + coherence misses.
				nlo, nhi := (lo+1024)%8192, (hi+1024)%8192
				if nlo < nhi {
					a.TouchRange(p, nlo, nhi, false)
				}
				c.Barrier()
			}
		})
		return g.MaxTime()
	}
	first := run()
	for i := 0; i < 4; i++ {
		if got := run(); got != first {
			t.Fatalf("SAS timing nondeterministic: %v vs %v", got, first)
		}
	}
}

func TestCtxOutOfWorldPanics(t *testing.T) {
	w, _, _ := world(2)
	g := sim.NewGroup(4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Ctx(g.Proc(3))
}
