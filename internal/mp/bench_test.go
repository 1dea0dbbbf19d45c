package mp

import (
	"testing"

	"o2k/internal/sim"
)

// Host-performance microbenchmarks of the MP runtime.

func BenchmarkPingPong(b *testing.B) {
	w, g := world(2)
	payload := make([]float64, 64)
	b.ResetTimer()
	g.Run(func(p *sim.Proc) {
		r := w.Rank(p)
		for i := 0; i < b.N; i++ {
			if r.ID() == 0 {
				Send(r, 1, 0, payload)
				Recv[float64](r, 1, 1)
			} else {
				Recv[float64](r, 0, 0)
				Send(r, 0, 1, payload)
			}
		}
	})
}

func BenchmarkAllreduce8(b *testing.B) {
	w, g := world(8)
	b.ResetTimer()
	g.Run(func(p *sim.Proc) {
		r := w.Rank(p)
		for i := 0; i < b.N; i++ {
			Allreduce1(r, float64(i), OpSum)
		}
	})
}

func BenchmarkAlltoallv8(b *testing.B) {
	w, g := world(8)
	b.ResetTimer()
	g.Run(func(p *sim.Proc) {
		r := w.Rank(p)
		chunks := make([][]float64, 8)
		for d := range chunks {
			chunks[d] = make([]float64, 32)
		}
		for i := 0; i < b.N; i++ {
			Alltoallv(r, chunks)
		}
	})
}
