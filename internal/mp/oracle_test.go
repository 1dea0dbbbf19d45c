package mp_test

import (
	"math"
	"slices"
	"testing"

	"o2k/internal/machine"
	"o2k/internal/mp"
	"o2k/internal/sim"
)

// term is rank i's contribution to the oracle's reduction. The magnitudes
// are far apart, so a sum in any order but rank order rounds differently.
// The shm and sas oracles use the same terms, so the three runtimes must
// agree bit for bit.
func term(i int) float64 { return 1/float64(i+3) + float64(i%3)*1e15 }

// TestAllreduce1Oracle checks one Allreduce1 against closed forms written
// from machine.Config alone, not from the runtime's code. At P = 1, 4 and
// 16, from equal entry clocks, it must return the rank-order sum, advance
// every clock by LogStages(P)·MPBarrierHop + LogStages(P)·8·MPPerByteNS,
// count one collective and send LogStages(P)·8 bytes. At P = 16 the terms
// must also sum to other bits in reverse order, or the check is blind to a
// reordered reduction.
func TestAllreduce1Oracle(t *testing.T) {
	for _, procs := range []int{1, 4, 16} {
		m := machine.MustNew(machine.Default(procs))
		w := mp.NewWorld(m)
		g := sim.NewGroup(procs)
		got := make([]float64, procs)
		g.Run(func(p *sim.Proc) {
			got[p.ID()] = mp.Allreduce1(w.Rank(p), term(p.ID()), mp.OpSum)
		})
		want, rev := term(0), term(procs-1)
		for i := 1; i < procs; i++ {
			want += term(i)
			rev += term(procs - 1 - i)
		}
		if procs == 16 && math.Float64bits(rev) == math.Float64bits(want) {
			t.Fatal("the terms sum to the same bits in reverse order: the oracle cannot see a reordered reduction")
		}
		stages := sim.Time(m.LogStages(procs))
		wantNow := stages*m.Cfg.MPBarrierHop + stages*8*m.Cfg.MPPerByteNS
		for i := 0; i < procs; i++ {
			p := g.Proc(i)
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Errorf("P=%d rank %d: sum %v, want the rank-order sum %v", procs, i, got[i], want)
			}
			if p.Now() != wantNow {
				t.Errorf("P=%d rank %d: clock %v, want %v", procs, i, p.Now(), wantNow)
			}
			if p.Collectives != 1 {
				t.Errorf("P=%d rank %d: %d collectives, want 1", procs, i, p.Collectives)
			}
			if p.BytesSent != uint64(stages*8) {
				t.Errorf("P=%d rank %d: %d bytes sent, want %d", procs, i, p.BytesSent, stages*8)
			}
		}
	}
}

// TestSendRecvOracle checks one Send/Recv pair at P = 2 against closed forms
// written from machine.Config and machine's exported cost functions alone.
// For n float64s (b = 8n bytes) the sender's clock must advance by
// MPSendOvNS + b·MPPerByteNS and its BytesSent by b. The receiver's clock must
// end at the sender's clock plus the wire time, max(Wire(b, Hops(0, 1)),
// MPMinWireNS), plus MPRecvOvNS + b·MPPerByteNS. This is checked on one node
// board and across two, for a message under the wire floor and one far over it.
func TestSendRecvOracle(t *testing.T) {
	for _, perNode := range []int{2, 1} {
		for _, n := range []int{1, 1000} {
			cfg := machine.Default(2)
			cfg.ProcsPerNode = perNode
			m := machine.MustNew(cfg)
			w := mp.NewWorld(m)
			g := sim.NewGroup(2)
			data := make([]float64, n)
			for i := range data {
				data[i] = term(i)
			}
			var got []float64
			g.Run(func(p *sim.Proc) {
				if r := w.Rank(p); r.ID() == 0 {
					mp.Send(r, 1, 7, data)
				} else {
					got = mp.Recv[float64](r, 0, 7)
				}
			})
			b := sim.Time(8 * n)
			send := cfg.MPSendOvNS + b*cfg.MPPerByteNS
			wire := max(m.Wire(8*n, m.Hops(0, 1)), cfg.MPMinWireNS)
			recv := send + wire + cfg.MPRecvOvNS + b*cfg.MPPerByteNS
			s, r := g.Proc(0), g.Proc(1)
			if s.Now() != send || r.Now() != recv {
				t.Errorf("%d per node, %d float64s: clocks %v and %v, want %v and %v", perNode, n, s.Now(), r.Now(), send, recv)
			}
			if s.BytesSent != uint64(b) || s.MsgsSent != 1 || r.BytesSent != 0 || r.MsgsSent != 0 {
				t.Errorf("%d per node, %d float64s: sender %d bytes in %d messages, receiver %d in %d; want %d in 1, 0 in 0",
					perNode, n, s.BytesSent, s.MsgsSent, r.BytesSent, r.MsgsSent, b)
			}
			if !slices.Equal(got, data) {
				t.Errorf("%d per node, %d float64s: received other values than were sent", perNode, n)
			}
		}
	}
}
