package numa

// Batched costed access (DESIGN.md §5.9). The entry points here charge a
// whole sequence of element accesses with one Advance instead of one per
// element. Each helper performs its accesses in exactly the order the
// equivalent element-at-a-time loop would — same cache probes, same LRU
// movement, same write-set records — so the final cache state, counters, and
// virtual time are identical to the unbatched loop (within one phase, latency
// and counter sums are order-independent).
//
// Each helper is one loop: an inline MRU probe of the cache Array.probe
// returns, and chargeSlowAcc — the slow path Load and Store share — for what
// that probe cannot settle. Under the reference model probe returns refProbe,
// so every access reaches chargeSlowAcc and is charged by chargeRef in the
// loop's own order. ref_test.go checks each helper against its element loop
// and, through the randomized differential, against the reference model.

import (
	"fmt"

	"o2k/internal/sim"
)

// Num constrains the element types the accumulate helpers (AddIdx, AddGather)
// can combine with +.
type Num interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// chargeSlowAcc is the one slow path behind every per-access entry point: the
// full probe, the miss's directory record, the counters and the write-set
// record, with the latency returned for the caller to accumulate into a single
// Advance. It is where the reference model enters: chargeRef charges the
// access at once, and nothing is left to accumulate.
func (a *Array[T]) chargeSlowAcc(p *sim.Proc, c *cache, gl uint64, li uint32, write bool) sim.Time {
	if refModel {
		a.chargeRef(p, li, write)
		return 0
	}
	lat := a.cacheHitNS
	if c.mruHit(gl) || c.accessSlow(gl) {
		p.CacheHits++
	} else {
		lat = a.missAcc(p, li)
	}
	if write && a.shared {
		a.recordWrite(p.ID(), li)
	}
	return lat
}

// missAcc records and counts the miss of array-local line li that accessSlow
// has just installed in p's cache, and returns its latency.
func (a *Array[T]) missAcc(p *sim.Proc, li uint32) sim.Time {
	lat, local := a.miss(p.ID(), li)
	if local {
		p.LocalMisses++
	} else {
		p.RemoteMisses++
	}
	return lat
}

// chargeAcc performs one costed access for the multi-array batch helpers,
// accumulating latency into *lat: charge with the Advance left to the caller.
func (a *Array[T]) chargeAcc(p *sim.Proc, c *cache, li uint32, write bool, lat *sim.Time) {
	gl := a.baseLine + uint64(li)
	if (write && a.shared) || !c.mruHit(gl) {
		*lat += a.chargeSlowAcc(p, c, gl, li, write)
		return
	}
	p.CacheHits++
	*lat += a.cacheHitNS
}

// GatherIdx copies element idx[k] into out[k] for every k, charging each read
// like Load but with one Advance for the whole gather. out must hold at least
// len(idx) elements.
func (a *Array[T]) GatherIdx(p *sim.Proc, idx []int32, out []T) {
	if len(idx) == 0 {
		return
	}
	out = out[:len(idx)]
	c := a.probe(p.ID())
	var lat sim.Time
	var hits uint64
	for k, ix := range idx {
		i := int(ix)
		li := a.lineOf(i)
		if gl := a.baseLine + uint64(li); c.mruHit(gl) {
			hits++
		} else {
			lat += a.chargeSlowAcc(p, c, gl, li, false)
		}
		out[k] = a.data[i]
	}
	p.CacheHits += hits
	p.Advance(lat + sim.Time(hits)*a.cacheHitNS)
}

// ScatterIdx stores vals[k] into element idx[k] for every k, charging each
// write like Store but with one Advance for the whole scatter.
func (a *Array[T]) ScatterIdx(p *sim.Proc, idx []int32, vals []T) {
	if len(idx) != len(vals) {
		panic(fmt.Sprintf("numa: ScatterIdx index/value length mismatch (%d vs %d)", len(idx), len(vals)))
	}
	if len(idx) == 0 {
		return
	}
	c := a.probe(p.ID())
	var lat sim.Time
	var hits uint64
	for k, ix := range idx {
		i := int(ix)
		li := a.lineOf(i)
		if gl := a.baseLine + uint64(li); !a.shared && c.mruHit(gl) {
			hits++
		} else {
			lat += a.chargeSlowAcc(p, c, gl, li, true)
		}
		a.data[i] = vals[k]
	}
	p.CacheHits += hits
	p.Advance(lat + sim.Time(hits)*a.cacheHitNS)
}

// FillIdx stores v into every element named by idx, charging each write like
// Store with one Advance for the batch — the indexed sibling of Fill.
func (a *Array[T]) FillIdx(p *sim.Proc, idx []int32, v T) {
	if len(idx) == 0 {
		return
	}
	c := a.probe(p.ID())
	var lat sim.Time
	var hits uint64
	for _, ix := range idx {
		i := int(ix)
		li := a.lineOf(i)
		if gl := a.baseLine + uint64(li); !a.shared && c.mruHit(gl) {
			hits++
		} else {
			lat += a.chargeSlowAcc(p, c, gl, li, true)
		}
		a.data[i] = v
	}
	p.CacheHits += hits
	p.Advance(lat + sim.Time(hits)*a.cacheHitNS)
}

// AddIdx adds vals[k] to element idx[k] for every k. Per element it charges a
// read then a write of the same element — exactly the
// a.Store(p, i, a.Load(p, i)+v) sequence it replaces.
func AddIdx[T Num](p *sim.Proc, a *Array[T], idx []int32, vals []T) {
	if len(idx) != len(vals) {
		panic(fmt.Sprintf("numa: AddIdx index/value length mismatch (%d vs %d)", len(idx), len(vals)))
	}
	c := a.probe(p.ID())
	var lat sim.Time
	for k, ix := range idx {
		li := a.lineOf(int(ix))
		a.chargeAcc(p, c, li, false, &lat)
		a.chargeAcc(p, c, li, true, &lat)
		a.data[ix] += vals[k]
	}
	p.Advance(lat)
}

// AddGather adds src[srcOff+k] to dst element idx[k] for every k. Both arrays
// must belong to the same Space. Per element the access order is dst read,
// src read, dst write — exactly the
// dst.Store(p, i, dst.Load(p, i)+src.Load(p, srcOff+k)) sequence it replaces.
func AddGather[T Num](p *sim.Proc, dst *Array[T], idx []int32, src *Array[T], srcOff int) {
	if dst.sp != src.sp {
		panic("numa: AddGather arrays from different spaces")
	}
	c := dst.probe(p.ID())
	var lat sim.Time
	for k, ix := range idx {
		li := dst.lineOf(int(ix))
		dst.chargeAcc(p, c, li, false, &lat)
		src.chargeAcc(p, c, src.lineOf(srcOff+k), false, &lat)
		dst.chargeAcc(p, c, li, true, &lat)
		dst.data[ix] += src.data[srcOff+k]
	}
	p.Advance(lat)
}

// PackIdx copies src element idx[k] into dst element dstOff+k for every k
// (both arrays in the same Space). Per element: src read, then dst write —
// the dst.Store(p, dstOff+k, src.Load(p, i)) staging-buffer idiom.
func PackIdx[T any](p *sim.Proc, dst *Array[T], dstOff int, src *Array[T], idx []int32) {
	if dst.sp != src.sp {
		panic("numa: PackIdx arrays from different spaces")
	}
	c := dst.probe(p.ID())
	var lat sim.Time
	for k, ix := range idx {
		src.chargeAcc(p, c, src.lineOf(int(ix)), false, &lat)
		dst.chargeAcc(p, c, dst.lineOf(dstOff+k), true, &lat)
		dst.data[dstOff+k] = src.data[ix]
	}
	p.Advance(lat)
}

// GatherFields packs, for every index idx[k], one element from each of srcs
// (field-major within the element: srcs[0][i], srcs[1][i], ...) into
// out[len(srcs)*k+f] — the AoS migration-record gather all three adaptive-mesh
// models perform, batched. All arrays must share one Space.
func GatherFields[T any](p *sim.Proc, srcs []*Array[T], idx []int32, out []T) {
	nf := len(srcs)
	if len(out) < nf*len(idx) {
		panic("numa: GatherFields output too short")
	}
	c := srcs[0].probe(p.ID())
	var lat sim.Time
	var hits uint64
	for k, ix := range idx {
		i := int(ix)
		for f, a := range srcs {
			li := a.lineOf(i)
			if gl := a.baseLine + uint64(li); c.mruHit(gl) {
				hits++
			} else {
				lat += a.chargeSlowAcc(p, c, gl, li, false)
			}
			out[nf*k+f] = a.data[i]
		}
	}
	p.CacheHits += hits
	p.Advance(lat + sim.Time(hits)*srcs[0].cacheHitNS)
}

// ScatterFields is the receive side of GatherFields: vals[len(dsts)*k+f] is
// stored into dsts[f] element idx[k], field-major per element.
func ScatterFields[T any](p *sim.Proc, dsts []*Array[T], idx []int32, vals []T) {
	nf := len(dsts)
	if len(vals) < nf*len(idx) {
		panic("numa: ScatterFields values too short")
	}
	c := dsts[0].probe(p.ID())
	var lat sim.Time
	var hits uint64
	for k, ix := range idx {
		i := int(ix)
		for f, a := range dsts {
			li := a.lineOf(i)
			if gl := a.baseLine + uint64(li); !a.shared && c.mruHit(gl) {
				hits++
			} else {
				lat += a.chargeSlowAcc(p, c, gl, li, true)
			}
			a.data[i] = vals[nf*k+f]
		}
	}
	p.CacheHits += hits
	p.Advance(lat + sim.Time(hits)*dsts[0].cacheHitNS)
}

// CopyFields copies element idx[k] of srcs[f] into element idx[k] of dsts[f]
// for every k, field-major per element (src read then dst write per field) —
// the carry-forward loop that re-seeds kept vertices from the previous cycle's
// arrays. len(dsts) must equal len(srcs); all arrays share one Space.
func CopyFields[T any](p *sim.Proc, dsts, srcs []*Array[T], idx []int32) {
	if len(dsts) != len(srcs) {
		panic(fmt.Sprintf("numa: CopyFields field count mismatch (%d vs %d)", len(dsts), len(srcs)))
	}
	c := dsts[0].probe(p.ID())
	var lat sim.Time
	var hits uint64
	for _, ix := range idx {
		i := int(ix)
		for f, s := range srcs {
			d := dsts[f]
			sl := s.lineOf(i)
			if gl := s.baseLine + uint64(sl); c.mruHit(gl) {
				hits++
			} else {
				lat += s.chargeSlowAcc(p, c, gl, sl, false)
			}
			dl := d.lineOf(i)
			if gl := d.baseLine + uint64(dl); !d.shared && c.mruHit(gl) {
				hits++
			} else {
				lat += d.chargeSlowAcc(p, c, gl, dl, true)
			}
			d.data[i] = s.data[i]
		}
	}
	p.CacheHits += hits
	p.Advance(lat + sim.Time(hits)*dsts[0].cacheHitNS)
}

// UnpackFields is ScatterFields reading from a costed staging array instead of
// a host slice: for every k, element src[srcOff+len(dsts)*k+f] is read then
// stored into dsts[f] element idx[k] — the src read/dst write interleaving of
// the SHMEM migration unpack loop.
func UnpackFields[T any](p *sim.Proc, src *Array[T], srcOff int, dsts []*Array[T], idx []int32) {
	nf := len(dsts)
	c := src.probe(p.ID())
	var lat sim.Time
	var hits uint64
	for k, ix := range idx {
		i := int(ix)
		for f, a := range dsts {
			si := srcOff + nf*k + f
			sl := src.lineOf(si)
			if gl := src.baseLine + uint64(sl); c.mruHit(gl) {
				hits++
			} else {
				lat += src.chargeSlowAcc(p, c, gl, sl, false)
			}
			al := a.lineOf(i)
			if gl := a.baseLine + uint64(al); !a.shared && c.mruHit(gl) {
				hits++
			} else {
				lat += a.chargeSlowAcc(p, c, gl, al, true)
			}
			a.data[i] = src.data[si]
		}
	}
	p.CacheHits += hits
	p.Advance(lat + sim.Time(hits)*src.cacheHitNS)
}

// Store3At writes elements i, i+1, i+2 in order with a single Advance.
func (a *Array[T]) Store3At(p *sim.Proc, i int, v0, v1, v2 T) {
	c := a.probe(p.ID())
	var lat sim.Time
	a.chargeAcc(p, c, a.lineOf(i), true, &lat)
	a.chargeAcc(p, c, a.lineOf(i+1), true, &lat)
	a.chargeAcc(p, c, a.lineOf(i+2), true, &lat)
	p.Advance(lat)
	a.data[i], a.data[i+1], a.data[i+2] = v0, v1, v2
}

// StoreRange copies vals into elements [lo, lo+len(vals)), charging every
// element like Store with one Advance: the span walk of TouchRange, counting
// an access per element.
func (a *Array[T]) StoreRange(p *sim.Proc, lo int, vals []T) {
	a.span(p, lo, lo+len(vals), true, true)
	copy(a.data[lo:lo+len(vals)], vals)
}
