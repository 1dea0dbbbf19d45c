package cg

// ReferenceSolve runs the sequential CG and returns the solution digest and
// the final squared residual norm.
func ReferenceSolve(w Workload, p *Plan) (checksum, rho float64) {
	nv := p.NV
	x := make([]float64, nv)
	r := make([]float64, nv)
	pv := make([]float64, nv)
	q := make([]float64, nv)
	copy(r, p.B)
	copy(pv, p.B)
	rho = dotRef(p, r, r)
	for it := 0; it < w.Iters; it++ {
		// q = A p.
		for i := range q {
			q[i] = 0
		}
		for _, e := range p.M.Edges {
			a, b := e[0], e[1]
			q[a] -= pv[b]
			q[b] -= pv[a]
		}
		for v := 0; v < nv; v++ {
			if p.M.VertUsed(int32(v)) {
				q[v] += p.Diag(w, int32(v)) * pv[v]
			}
		}
		alpha := rho / dotRef(p, pv, q)
		for v := 0; v < nv; v++ {
			if p.M.VertUsed(int32(v)) {
				x[v] += alpha * pv[v]
				r[v] -= alpha * q[v]
			}
		}
		rho2 := dotRef(p, r, r)
		beta := rho2 / rho
		rho = rho2
		for v := 0; v < nv; v++ {
			if p.M.VertUsed(int32(v)) {
				pv[v] = r[v] + beta*pv[v]
			}
		}
	}
	s := 0.0
	for v := 0; v < nv; v++ {
		if p.M.VertUsed(int32(v)) {
			s += x[v]
		}
	}
	return s, rho
}

func dotRef(p *Plan, a, b []float64) float64 {
	s := 0.0
	for v := 0; v < p.NV; v++ {
		if p.M.VertUsed(int32(v)) {
			s += a[v] * b[v]
		}
	}
	return s
}
