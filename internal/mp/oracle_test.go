package mp_test

import (
	"math"
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
