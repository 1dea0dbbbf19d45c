package numa

import "o2k/internal/sim"

// Cursor is a bound accessor: Array, processor, and cache resolved once, the
// scalar geometry a probe needs — the array's base line and element size, the
// cache's set hash — copied where the loop runs, and the MRU hits counted
// locally and charged by a single Advance at Flush. It exists for the
// irregular inner loops that interleave several arrays per iteration (edge
// flux, vertex update, tree walk), where the index-batched helpers in batch.go
// do not fit: the loop keeps its shape and each Load/Store charges exactly
// like Array.Load/Store — same probes, same write-set records, same counters
// — except that the clock advances once per Flush instead of once per access.
// Within one phase the sums are identical.
//
// A cursor copies scalars only. The two slices an access reads — the cache's
// tags, the array's data — may be demand-zero mappings that Release and Close
// unmap, so they are read afresh through c and a on every access: a cursor
// that outlives its array or its Space panics on the nil slice like any other
// accessor, and never touches an unmapped page.
//
// Rules: a Cursor is single-proc (use p's own cursor only from p's body) and
// must be Flushed before any synchronization, communication, or phase change
// — anything that reads p's clock — and before the loop's results are used to
// derive further costed work. Flush is idempotent; an unflushed cursor at a
// rendezvous would under-report the entry clock and break determinism.
//
// Under the reference model a cursor probes refProbe like every other entry
// point (Array.probe), so each access is charged by chargeRef with an
// immediate Advance and Flush has nothing left to charge.
type Cursor[T any] struct {
	a *Array[T]
	p *sim.Proc
	c *cache

	baseLine  uint64
	elemSize  uint64
	lineShift uint
	setBits   uint
	setMask   uint64
	shared    bool

	lat  sim.Time // miss latency not yet charged
	hits uint64   // MRU hits not yet charged: cacheHitNS apiece at Flush
}

// Cursor binds a to p. The returned value is cheap to create per loop; do not
// share it across procs.
func (a *Array[T]) Cursor(p *sim.Proc) Cursor[T] {
	c := a.probe(p.ID())
	return Cursor[T]{
		a: a, p: p, c: c,
		baseLine: a.baseLine, elemSize: a.elemSize, lineShift: a.lineShift,
		setBits: c.setBits, setMask: c.setMask, shared: a.shared,
	}
}

// line is the global line address of element i.
func (cu *Cursor[T]) line(i int) uint64 {
	return cu.baseLine + uint64(i)*cu.elemSize>>(cu.lineShift&63)
}

// Load reads element i through the cursor; identical charging to Array.Load
// with the Advance deferred to Flush.
func (cu *Cursor[T]) Load(i int) T {
	if gl := cu.line(i); mruAt(cu.c.tags, cu.setBits, cu.setMask, gl) {
		cu.hits++
	} else {
		cu.slow(i, gl, false)
	}
	return cu.a.data[i]
}

// Store writes element i through the cursor; identical charging to
// Array.Store with the Advance deferred to Flush.
func (cu *Cursor[T]) Store(i int, v T) {
	if gl := cu.line(i); !cu.shared && mruAt(cu.c.tags, cu.setBits, cu.setMask, gl) {
		cu.hits++
	} else {
		cu.slow(i, gl, true)
	}
	cu.a.data[i] = v
}

// slow charges what the inlined probe could not: any access under the
// reference model, a store to a shared array (it needs its write-set record),
// a hit in a non-MRU way, a miss.
func (cu *Cursor[T]) slow(i int, gl uint64, write bool) {
	cu.lat += cu.a.chargeSlowAcc(cu.p, cu.c, gl, cu.a.lineOf(i), write)
}

// Flush charges the accumulated hit count and latency to the processor. Call
// it before any rendezvous, message, or phase switch.
func (cu *Cursor[T]) Flush() {
	cu.p.CacheHits += cu.hits
	cu.p.Advance(cu.lat + sim.Time(cu.hits)*cu.a.cacheHitNS)
	cu.hits = 0
	cu.lat = 0
}
