package stencil

// ReferenceChecksum computes the final-grid digest sequentially.
func ReferenceChecksum(w Workload) float64 {
	size := (w.N + 2) * (w.N + 2)
	u := make([]float64, size)
	v := make([]float64, size)
	for i := 0; i <= w.N+1; i++ {
		for j := 0; j <= w.N+1; j++ {
			u[idx(w, i, j)] = initGrid(w, i, j)
			v[idx(w, i, j)] = initGrid(w, i, j)
		}
	}
	for it := 0; it < w.Iters; it++ {
		for i := 1; i <= w.N; i++ {
			for j := 1; j <= w.N; j++ {
				v[idx(w, i, j)] = 0.25 * (u[idx(w, i-1, j)] + u[idx(w, i+1, j)] +
					u[idx(w, i, j-1)] + u[idx(w, i, j+1)])
			}
		}
		u, v = v, u
	}
	s := 0.0
	for i := 1; i <= w.N; i++ {
		for j := 1; j <= w.N; j++ {
			s += u[idx(w, i, j)]
		}
	}
	return s
}
