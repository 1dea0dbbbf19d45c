package barnes

import "o2k/internal/nbody"

// ReferenceChecksum returns the digest of the final reference body state.
func ReferenceChecksum(w Workload) float64 {
	b := nbody.NewPlummer(w.N, w.Seed)
	ax := make([]float64, w.N)
	ay := make([]float64, w.N)
	inter := make([]int, w.N)
	for s := 0; s < w.Steps; s++ {
		nbody.Step(b, nbody.Build(b), w.Theta, ax, ay, inter)
	}
	// The parallel codes' fold: x + 2y over the bodies in index order.
	s := 0.0
	for i := range b.X {
		s += b.X[i] + 2*b.Y[i]
	}
	return s
}
