package mp

import (
	"o2k/internal/sim"
)

// Number constrains the element types the reduction collectives support.
type Number interface {
	~int | ~int32 | ~int64 | ~uint64 | ~float64
}

// Op names a reduction's combining operator. The programs only sum, so
// OpSum is the one operator; the argument keeps a reduction reading the same
// under every model.
type Op int

// OpSum adds.
const OpSum Op = 0

// Allreduce1 sums v across all ranks in rank order, so floating-point
// results are deterministic, and returns the sum on every rank.
func Allreduce1[T Number](r *Rank, v T, _ Op) T {
	r.P.Collectives++
	res := r.W.reducer.DoAs(r.P, r.ID(), v, func(all []any) any {
		sum := all[0].(T)
		for _, x := range all[1:] {
			sum += x.(T)
		}
		return sum
	}).(T)
	// Per-rank data cost beyond the synchronization: log-stage copies.
	bytes := byteLen([]T{v})
	stages := r.W.M.LogStages(r.Size())
	r.P.Advance(sim.Time(stages) * sim.Time(bytes) * r.W.M.Cfg.MPPerByteNS)
	r.P.BytesSent += uint64(bytes * stages)
	return res
}

// Allgatherv concatenates every rank's contribution in rank order and returns
// the whole vector plus the starting offset of each rank's block.
func Allgatherv[T any](r *Rank, data []T) (all []T, offsets []int) {
	r.P.Collectives++
	cp := make([]T, len(data))
	copy(cp, data)
	type gathered struct {
		all     []T
		offsets []int
	}
	res := r.W.reducer.DoAs(r.P, r.ID(), cp, func(vals []any) any {
		g := &gathered{offsets: make([]int, len(vals)+1)}
		for i, v := range vals {
			vs := v.([]T)
			g.offsets[i] = len(g.all)
			g.all = append(g.all, vs...)
		}
		g.offsets[len(vals)] = len(g.all)
		return g
	}).(*gathered)
	// Each rank receives everyone else's data.
	foreign := byteLen(res.all) - byteLen(data)
	cfg := &r.W.M.Cfg
	r.P.Advance(sim.Time(foreign) * (cfg.MPPerByteNS + cfg.WirePerByteNS))
	r.P.BytesSent += uint64(byteLen(data))
	r.P.MsgsSent += uint64(r.W.M.LogStages(r.Size()))
	return res.all, res.offsets[:r.Size()]
}

// Alltoallv delivers chunks[dst] from every rank to rank dst, using real
// point-to-point messages (this is how the MP remapping phase moves data).
// chunks[r.ID()] is kept locally. It returns the received chunks indexed by
// source rank.
func Alltoallv[T any](r *Rank, chunks [][]T) [][]T {
	const tag = -7 // runtime-internal tag
	n := r.Size()
	out := make([][]T, n)
	me := r.ID()
	out[me] = chunks[me]
	// Stagger send order to avoid systematic hot spots: rank k sends first to
	// k+1, then k+2, ...
	for d := 1; d < n; d++ {
		dst := (me + d) % n
		Send(r, dst, tag, chunks[dst])
	}
	for d := 1; d < n; d++ {
		src := (me - d + n) % n
		out[src] = Recv[T](r, src, tag)
	}
	return out
}
