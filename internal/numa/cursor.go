package numa

import "o2k/internal/sim"

// Cursor is a bound accessor: Array, processor, and cache resolved once, with
// the per-access virtual latency accumulated locally and charged by a single
// Advance at Flush. It exists for the irregular inner loops that interleave
// several arrays per iteration (edge flux, vertex update, tree walk), where
// the index-batched helpers in batch.go do not fit: the loop keeps its shape
// and each Load/Store charges exactly like Array.Load/Store — same fast
// paths, same probes, same write-set records, same counters — except that the
// clock advances once per Flush instead of once per access. Within one phase
// the sums are identical.
//
// Rules: a Cursor is single-proc (use p's own cursor only from p's body) and
// must be Flushed before any synchronization, communication, or phase change
// — anything that reads p's clock — and before the loop's results are used to
// derive further costed work. Flush is idempotent; an unflushed cursor at a
// rendezvous would under-report the entry clock and break determinism.
//
// Under refModel every access degrades to chargeRef with an immediate
// Advance, so Flush becomes a no-op and differential traces stay aligned.
type Cursor[T any] struct {
	a    *Array[T]
	p    *sim.Proc
	c    *cache
	me   int
	lat  sim.Time
	hits uint64
}

// Cursor binds a to p. The returned value is cheap to create per loop; do not
// share it across procs.
func (a *Array[T]) Cursor(p *sim.Proc) Cursor[T] {
	me := p.ID()
	return Cursor[T]{a: a, p: p, c: a.caches[me], me: me}
}

// Load reads element i through the cursor; identical charging to Array.Load
// with the Advance deferred to Flush.
func (cu *Cursor[T]) Load(i int) T {
	a := cu.a
	gl := a.baseLine + uint64(uint64(i)*a.elemSize>>a.lineShift)
	lr := &a.last[cu.me]
	if lr.line == gl+1 && lr.gen == cu.c.gen {
		cu.hits++
		cu.lat += a.cacheHitNS
		return a.data[i]
	}
	return cu.loadSlow(i, gl)
}

// TryTouch charges a load of element i iff it hits the per-proc MRU memo,
// without materializing the value — the replay loops (precomputed traversal
// traces) need only the charge. Returns whether it charged; on false it
// changes nothing and the caller completes with TouchMiss(i). Charging is
// identical to Load's memo fast path.
func (cu *Cursor[T]) TryTouch(i int) bool {
	a := cu.a
	gl := a.baseLine + uint64(uint64(i)*a.elemSize>>a.lineShift)
	lr := &a.last[cu.me]
	if lr.line == gl+1 && lr.gen == cu.c.gen {
		cu.hits++
		cu.lat += a.cacheHitNS
		return true
	}
	return false
}

// TouchMiss completes a charge whose TryTouch returned false; identical
// charging to Load's slow path without returning the element. It never
// consults the memo, so on its own it charges any load correctly — an MRU
// probe, else the full access (ReplayLoads' touchEntry relies on that).
func (cu *Cursor[T]) TouchMiss(i int) {
	a := cu.a
	gl := a.baseLine + uint64(uint64(i)*a.elemSize>>a.lineShift)
	if refModel {
		a.chargeRef(cu.p, a.lineOf(i), false)
		return
	}
	base := cu.c.setBase(gl)
	if cu.c.mruHit(base, gl) {
		cu.hits++
		cu.lat += a.cacheHitNS
		a.last[cu.me] = lastRef{gl + 1, cu.c.gen}
	} else {
		cu.lat += a.chargeSlowAcc(cu.p, cu.c, base, gl, a.lineOf(i), false)
	}
}

// Arm is a per-access-stream line memo for LoadArm: it remembers the last
// line the stream verified present (in the MRU way of its set) and the cache
// generation at that moment. While the generation is unchanged no tag in the
// cache has moved — installs, LRU reorders, invalidation evictions, and
// flushes all bump it — so the line is provably still MRU and a repeat
// access charges as a hit without the set hash and tag probe. The per-proc
// memo in Array.last remembers only one line per array; loops that cycle
// through several lines of one array each iteration (the up/down/row arms of
// a 5-point stencil) thrash it, and a per-arm memo restores the hit rate.
type Arm struct {
	line uint64 // global line address + 1 (0 = never set)
	gen  uint64
}

// LoadArm reads element i like Load, additionally consulting and maintaining
// arm as a second line memo. Charging is identical to Load: an arm hit is
// exactly the probe-hit outcome it shortcuts (same hit count, latency, and
// memo refresh), and the arm is bypassed under the reference model.
func (cu *Cursor[T]) LoadArm(arm *Arm, i int) T {
	a := cu.a
	gl := a.baseLine + uint64(uint64(i)*a.elemSize>>a.lineShift)
	lr := &a.last[cu.me]
	if lr.line == gl+1 && lr.gen == cu.c.gen {
		cu.hits++
		cu.lat += a.cacheHitNS
		return a.data[i]
	}
	if arm.line == gl+1 && arm.gen == cu.c.gen && !refModel {
		cu.hits++
		cu.lat += a.cacheHitNS
		a.last[cu.me] = lastRef{gl + 1, cu.c.gen}
		return a.data[i]
	}
	v := cu.loadSlow(i, gl)
	arm.line = gl + 1
	arm.gen = cu.c.gen
	return v
}

func (cu *Cursor[T]) loadSlow(i int, gl uint64) T {
	a := cu.a
	if refModel {
		a.chargeRef(cu.p, a.lineOf(i), false)
		return a.data[i]
	}
	base := cu.c.setBase(gl)
	if cu.c.mruHit(base, gl) {
		cu.hits++
		cu.lat += a.cacheHitNS
		a.last[cu.me] = lastRef{gl + 1, cu.c.gen}
	} else {
		cu.lat += a.chargeSlowAcc(cu.p, cu.c, base, gl, a.lineOf(i), false)
	}
	return a.data[i]
}

// Store writes element i through the cursor; identical charging to
// Array.Store with the Advance deferred to Flush.
func (cu *Cursor[T]) Store(i int, v T) {
	a := cu.a
	if !a.shared {
		gl := a.baseLine + uint64(uint64(i)*a.elemSize>>a.lineShift)
		lr := &a.last[cu.me]
		if lr.line == gl+1 && lr.gen == cu.c.gen {
			cu.hits++
			cu.lat += a.cacheHitNS
			a.data[i] = v
			return
		}
	}
	cu.storeSlow(i, v)
}

func (cu *Cursor[T]) storeSlow(i int, v T) {
	a := cu.a
	if refModel {
		a.chargeRef(cu.p, a.lineOf(i), true)
		a.data[i] = v
		return
	}
	gl := a.baseLine + uint64(uint64(i)*a.elemSize>>a.lineShift)
	base := cu.c.setBase(gl)
	if !a.shared && cu.c.mruHit(base, gl) {
		cu.hits++
		cu.lat += a.cacheHitNS
		a.last[cu.me] = lastRef{gl + 1, cu.c.gen}
	} else {
		cu.lat += a.chargeSlowAcc(cu.p, cu.c, base, gl, a.lineOf(i), true)
	}
	a.data[i] = v
}

// Flush charges the accumulated hit count and latency to the processor. Call
// it before any rendezvous, message, or phase switch.
func (cu *Cursor[T]) Flush() {
	cu.p.CacheHits += cu.hits
	cu.p.Advance(cu.lat)
	cu.hits = 0
	cu.lat = 0
}
