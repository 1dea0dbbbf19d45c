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
