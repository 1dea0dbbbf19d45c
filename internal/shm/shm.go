// Package shm is the one-sided (SGI/Cray SHMEM-style) programming-model
// runtime: a symmetric heap, remote Put/PutIdx/Get, a completing barrier, and
// the collectives the programs call (a sum allreduce and a collect).
//
// The defining contrast with the mp package is cost structure: a put is a
// processor-initiated remote store stream with sub-microsecond overhead and
// no receiver involvement, so fine-grained irregular communication is far
// cheaper than under two-sided message passing — but the programmer must
// manage symmetric allocation and explicit completion (the barrier), which
// shows up in the programming-effort comparison.
//
// Completion semantics: data written by Put becomes safely readable by the
// target after the next Barrier. Target-side cache lines covering put ranges
// are invalidated at the barrier, so the target's next accesses take (local)
// misses — the same memory-system behaviour the real machine exhibits.
package shm

import (
	"fmt"
	"slices"
	"unsafe"

	"o2k/internal/machine"
	"o2k/internal/numa"
	"o2k/internal/sim"
)

// World is the shared context of one SHMEM program: machine, memory space,
// synchronization structures, and the put log for barrier-time invalidation.
// One scheduler goroutine runs every PE, so the log takes no host lock.
type World struct {
	M  *machine.Machine
	Sp *numa.Space

	barrier  *sim.Barrier
	reducer  *sim.Reducer
	putSpans [][]span // per target PE: global line spans put this epoch
}

// span is a half-open range [lo, hi) of global line addresses. The put log is
// span-based (DESIGN.md §5.9): adjacent puts coalesce at log time and the
// remainder merges at the barrier. Invalidation is idempotent — each present
// line evicts exactly once however often it was put — so replacing the old
// per-line multiset log with the span union leaves eviction counts, and
// therefore every penalty and counter, unchanged.
type span struct{ lo, hi uint64 }

// NewWorld creates the SHMEM context for all processors of m, allocating
// symmetric memory out of sp.
func NewWorld(m *machine.Machine, sp *numa.Space) *World {
	w := &World{M: m, Sp: sp, putSpans: make([][]span, m.Procs())}
	stages := m.LogStages(m.Procs())
	w.barrier = sim.NewBarrierHook(m.Procs(),
		func(int) sim.Time { return sim.Time(stages) * m.Cfg.ShmBarrierHop },
		w.completePuts)
	w.reducer = sim.NewReducer(m.Procs(), func(int) sim.Time {
		return sim.Time(stages) * m.Cfg.ShmBarrierHop
	})
	return w
}

// completePuts runs at the barrier rendezvous: invalidate target-side cached
// lines covered by this epoch's puts, charging each target the invalidation
// processing time. Each target's spans are sorted, merged, and probed once
// per line of the union — identical evictions to the old per-line log.
func (w *World) completePuts() []sim.Time {
	var pen []sim.Time
	for pe, spans := range w.putSpans {
		if len(spans) == 0 {
			continue
		}
		if pen == nil {
			pen = make([]sim.Time, w.M.Procs())
		}
		slices.SortFunc(spans, func(a, b span) int {
			switch {
			case a.lo < b.lo:
				return -1
			case a.lo > b.lo:
				return 1
			default:
				return 0
			}
		})
		n := 0
		cur := spans[0]
		for _, s := range spans[1:] {
			if s.lo <= cur.hi {
				if s.hi > cur.hi {
					cur.hi = s.hi
				}
				continue
			}
			n += w.Sp.InvalidateSpan(pe, cur.lo, cur.hi)
			cur = s
		}
		n += w.Sp.InvalidateSpan(pe, cur.lo, cur.hi)
		pen[pe] += sim.Time(n) * w.M.Cfg.CohInvalPerLine
		w.putSpans[pe] = spans[:0]
	}
	return pen
}

// logPut records that lines [lo,hi) of global line space were put to pe,
// coalescing with the previous record when the ranges touch — consecutive
// puts into adjacent staging offsets (the common pattern) stay one span.
func (w *World) logPut(pe int, lo, hi uint64) {
	if hi <= lo {
		return
	}
	sp := w.putSpans[pe]
	if n := len(sp); n > 0 && lo <= sp[n-1].hi && sp[n-1].lo <= hi {
		if lo < sp[n-1].lo {
			sp[n-1].lo = lo
		}
		if hi > sp[n-1].hi {
			sp[n-1].hi = hi
		}
	} else {
		sp = append(sp, span{lo, hi})
	}
	w.putSpans[pe] = sp
}

// PE binds processor p to the world, yielding the per-processing-element
// handle (SHMEM's "PE" is its rank).
func (w *World) PE(p *sim.Proc) *PE {
	if p.ID() < 0 || p.ID() >= w.M.Procs() {
		panic(fmt.Sprintf("shm: proc %d outside world of size %d", p.ID(), w.M.Procs()))
	}
	return &PE{W: w, P: p}
}

// PE is one processing element of the SHMEM program.
type PE struct {
	W *World
	P *sim.Proc
}

// ID returns the PE number.
func (pe *PE) ID() int { return pe.P.ID() }

// Size returns the number of PEs.
func (pe *PE) Size() int { return pe.W.M.Procs() }

// Barrier synchronizes all PEs and completes all outstanding puts.
func (pe *PE) Barrier() {
	pe.P.Collectives++
	pe.W.barrier.Wait(pe.P)
}

// Sym is a symmetric-heap allocation: one block of n elements on every PE,
// all addressable remotely. The handle is identical on every PE (symmetric
// addresses), matching SHMEM's programming model.
type Sym[T any] struct {
	parts []*numa.Array[T]
}

// AllocWorld allocates a symmetric array outside the SPMD region (the
// moral equivalent of static symmetric data segments, which SHMEM programs
// rely on for setup). Allocation order is the caller's program order, so
// addresses — and therefore cache behaviour — are deterministic.
func AllocWorld[T any](w *World, n int) *Sym[T] {
	s := &Sym[T]{parts: make([]*numa.Array[T], w.M.Procs())}
	for i := range s.parts {
		s.parts[i] = numa.NewPrivate[T](w.Sp, i, n)
	}
	return s
}

// Free releases every PE's block of s for host-side reuse (numa.Release):
// the symmetric handle is dead afterwards. Callers must ensure all puts
// targeting s have completed at a barrier before freeing — a released block
// must never be accessed again, locally or remotely.
func Free[T any](s *Sym[T]) {
	for _, a := range s.parts {
		numa.Release(a)
	}
	s.parts = nil
}

// Local returns this PE's own block for costed local access.
func (s *Sym[T]) Local(pe *PE) *numa.Array[T] { return s.parts[pe.ID()] }

// Put copies src into the target PE's block at offset off. The initiator
// pays overhead + per-byte + wire time; target-side visibility completes at
// the next Barrier.
func Put[T any](pe *PE, s *Sym[T], target, off int, src []T) {
	if len(src) == 0 {
		return
	}
	w := pe.W
	var z T
	bytes := len(src) * int(unsafe.Sizeof(z))
	cfg := &w.M.Cfg
	cost := cfg.ShmPutOvNS + sim.Time(bytes)*cfg.ShmPerByteNS
	if target != pe.ID() {
		cost += w.M.Wire(bytes, w.M.Hops(pe.ID(), target))
	}
	pe.P.Advance(cost)
	pe.P.BytesSent += uint64(bytes)
	pe.P.MsgsSent++

	dst := s.parts[target]
	copy(dst.Data()[off:off+len(src)], src)
	if target != pe.ID() {
		lo, hi := dst.LineRange(off, off+len(src))
		w.logPut(target, lo, hi)
	}
}

// PutIdx is the indexed put (shmem_ixput): vals[i] is written to element
// idx[i] of the target PE's block, as one vectored transfer. The initiator
// pays a single overhead plus the per-byte and wire costs; target-side lines
// covering the touched elements are invalidated at the next Barrier.
func PutIdx[T any](pe *PE, s *Sym[T], target int, idx []int32, vals []T) {
	if len(idx) != len(vals) {
		panic("shm: PutIdx index/value length mismatch")
	}
	if len(idx) == 0 {
		return
	}
	w := pe.W
	var z T
	bytes := len(vals) * int(unsafe.Sizeof(z))
	cfg := &w.M.Cfg
	cost := cfg.ShmPutOvNS + sim.Time(bytes)*cfg.ShmPerByteNS
	if target != pe.ID() {
		cost += w.M.Wire(bytes, w.M.Hops(pe.ID(), target))
	}
	pe.P.Advance(cost)
	pe.P.BytesSent += uint64(bytes)
	pe.P.MsgsSent++

	dst := s.parts[target]
	data := dst.Data()
	for i, ix := range idx {
		data[ix] = vals[i]
	}
	if target != pe.ID() {
		for _, ix := range idx {
			lo, hi := dst.LineRange(int(ix), int(ix)+1)
			w.logPut(target, lo, hi)
		}
	}
}

// Get copies n elements from the target PE's block at offset off into a
// fresh slice. Gets are synchronous: the initiator pays the round trip.
func Get[T any](pe *PE, s *Sym[T], target, off, n int) []T {
	out := make([]T, n)
	if n == 0 {
		return out
	}
	w := pe.W
	var z T
	bytes := n * int(unsafe.Sizeof(z))
	cfg := &w.M.Cfg
	cost := cfg.ShmGetOvNS + sim.Time(bytes)*cfg.ShmPerByteNS
	if target != pe.ID() {
		h := w.M.Hops(pe.ID(), target)
		cost += w.M.Wire(0, h) + w.M.Wire(bytes, h) // request + reply
	}
	pe.P.Advance(cost)
	pe.P.BytesSent += uint64(bytes)
	pe.P.MsgsSent++
	copy(out, s.parts[target].Data()[off:off+n])
	return out
}
