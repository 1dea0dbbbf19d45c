package sim

import (
	"fmt"
	"sync"
	"testing"
)

// Host-performance microbenchmarks of the scheduler: the block/wake cycle is
// the floor under every rendezvous the apps execute.

// BenchmarkBarrierRoundTrip measures one full park/release cycle per op:
// every proc blocks on the barrier and the scheduler wakes all of them
// again, so an op costs procs context switches plus the release sweep.
func BenchmarkBarrierRoundTrip(b *testing.B) {
	for _, procs := range []int{4, 64, 256} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			g := NewGroup(procs)
			bar := NewBarrier(procs, func(n int) Time { return Time(n) })
			b.ResetTimer()
			g.Run(func(p *Proc) {
				for i := 0; i < b.N; i++ {
					bar.Wait(p)
				}
			})
		})
	}
}

// BenchmarkCondPingPong measures the single-waiter wake path: two procs
// alternate turns through a Cond, so each op is one block and one targeted
// wake on each side — the sharpest view of per-switch overhead, without the
// barrier's fan-in/fan-out.
func BenchmarkCondPingPong(b *testing.B) {
	g := NewGroup(2)
	var mu sync.Mutex
	var cv Cond
	turn := 0
	b.ResetTimer()
	g.Run(func(p *Proc) {
		me := p.ID()
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < b.N; i++ {
			for turn != me {
				cv.Wait(p, &mu)
			}
			turn = 1 - me
			cv.Broadcast()
		}
	})
}
