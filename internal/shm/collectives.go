package shm

import (
	"unsafe"

	"o2k/internal/sim"
)

// Number constrains reduction element types.
type Number interface {
	~int | ~int32 | ~int64 | ~uint64 | ~float64
}

// Op names a reduction's combining operator. The programs only sum, so
// OpSum is the one operator; the argument keeps a reduction reading the same
// under every model.
type Op int

// OpSum adds (shmem_*_sum_to_all).
const OpSum Op = 0

// Allreduce1 sums v across all PEs in PE order and returns the sum
// everywhere (shmem_double_sum_to_all for one element).
func Allreduce1[T Number](pe *PE, v T, _ Op) T {
	pe.P.Collectives++
	res := pe.W.reducer.Do(pe.P, v, func(all []any) any {
		sum := all[0].(T)
		for _, x := range all[1:] {
			sum += x.(T)
		}
		return sum
	}).(T)
	// Per-PE data cost beyond the synchronization: log-stage copies of one
	// 8-byte element, whatever T is.
	stages := pe.W.M.LogStages(pe.Size())
	pe.P.Advance(sim.Time(stages) * 8 * pe.W.M.Cfg.ShmPerByteNS)
	return res
}

// Collect concatenates each PE's variable-length contribution in PE order
// (shmem_collect) and returns the whole vector plus per-PE offsets.
func Collect[T any](pe *PE, data []T) (all []T, offsets []int) {
	pe.P.Collectives++
	cp := make([]T, len(data))
	copy(cp, data)
	type gathered struct {
		all     []T
		offsets []int
	}
	res := pe.W.reducer.Do(pe.P, cp, func(vals []any) any {
		g := &gathered{offsets: make([]int, len(vals)+1)}
		for i, v := range vals {
			vs := v.([]T)
			g.offsets[i] = len(g.all)
			g.all = append(g.all, vs...)
		}
		g.offsets[len(vals)] = len(g.all)
		return g
	}).(*gathered)
	// One-sided collect: each PE pulls everyone else's block at get cost.
	foreignElems := len(res.all) - len(data)
	bytes := foreignElems * elemBytes[T]()
	cfg := &pe.W.M.Cfg
	pe.P.Advance(sim.Time(bytes)*(cfg.ShmPerByteNS+cfg.WirePerByteNS) +
		sim.Time(pe.Size()-1)*cfg.ShmGetOvNS)
	pe.P.BytesSent += uint64(len(data) * elemBytes[T]()) // own injected bytes
	pe.P.MsgsSent += uint64(pe.Size() - 1)
	return res.all, res.offsets[:pe.Size()]
}

func elemBytes[T any]() int {
	var z T
	return int(unsafe.Sizeof(z))
}
