package shm_test

import (
	"math"
	"testing"

	"o2k/internal/machine"
	"o2k/internal/numa"
	"o2k/internal/shm"
	"o2k/internal/sim"
)

// term is PE i's contribution to the oracle's reduction: the same terms as
// the mp and sas oracles, which only a rank-order sum reproduces bit for bit.
func term(i int) float64 { return 1/float64(i+3) + float64(i%3)*1e15 }

// TestAllreduce1Oracle checks one Allreduce1 against closed forms written
// from machine.Config alone, not from the runtime's code. At P = 1, 4 and
// 16, from equal entry clocks, it must return the PE-order sum, advance
// every clock by LogStages(P)·ShmBarrierHop + LogStages(P)·8·ShmPerByteNS
// and count one collective.
func TestAllreduce1Oracle(t *testing.T) {
	for _, procs := range []int{1, 4, 16} {
		m := machine.MustNew(machine.Default(procs))
		w := shm.NewWorld(m, numa.NewSpace(m))
		g := sim.NewGroup(procs)
		got := make([]float64, procs)
		g.Run(func(p *sim.Proc) {
			got[p.ID()] = shm.Allreduce1(w.PE(p), term(p.ID()), shm.OpSum)
		})
		want := term(0)
		for i := 1; i < procs; i++ {
			want += term(i)
		}
		stages := sim.Time(m.LogStages(procs))
		wantNow := stages*m.Cfg.ShmBarrierHop + stages*8*m.Cfg.ShmPerByteNS
		for i := 0; i < procs; i++ {
			p := g.Proc(i)
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Errorf("P=%d PE %d: sum %v, want the PE-order sum %v", procs, i, got[i], want)
			}
			if p.Now() != wantNow {
				t.Errorf("P=%d PE %d: clock %v, want %v", procs, i, p.Now(), wantNow)
			}
			if p.Collectives != 1 {
				t.Errorf("P=%d PE %d: %d collectives, want 1", procs, i, p.Collectives)
			}
		}
	}
}

// TestPutOracle checks one remote Put at P = 2 against closed forms written
// from machine.Config and machine's exported cost functions alone: for n
// float64s (b = 8n bytes) the initiator's clock must advance by ShmPutOvNS +
// b·ShmPerByteNS + Wire(b, Hops(0, 1)) and its BytesSent by b, in one
// message, and the target's must not move. This is checked on one node board
// and across two.
func TestPutOracle(t *testing.T) {
	for _, perNode := range []int{2, 1} {
		for _, n := range []int{1, 1000} {
			cfg := machine.Default(2)
			cfg.ProcsPerNode = perNode
			m := machine.MustNew(cfg)
			w := shm.NewWorld(m, numa.NewSpace(m))
			s := shm.AllocWorld[float64](w, n)
			g := sim.NewGroup(2)
			g.Run(func(p *sim.Proc) {
				if pe := w.PE(p); pe.ID() == 0 {
					shm.Put(pe, s, 1, 0, make([]float64, n))
				}
			})
			b := sim.Time(8 * n)
			want := cfg.ShmPutOvNS + b*cfg.ShmPerByteNS + m.Wire(8*n, m.Hops(0, 1))
			src, dst := g.Proc(0), g.Proc(1)
			if src.Now() != want || dst.Now() != 0 {
				t.Errorf("%d per node, %d float64s: clocks %v and %v, want %v and 0", perNode, n, src.Now(), dst.Now(), want)
			}
			if src.BytesSent != uint64(b) || src.MsgsSent != 1 {
				t.Errorf("%d per node, %d float64s: %d bytes in %d messages, want %d in 1", perNode, n, src.BytesSent, src.MsgsSent, b)
			}
		}
	}
}
