package numa

import "math/bits"

// Stream is one access stream of ChargeLoop: at step j it loads element Off+j
// of the array C is bound to, or stores it when Write is set.
type Stream[T any] struct {
	C     *Cursor[T]
	Off   int
	Write bool
}

// walkStream is what ChargeLoop knows of one stream between two of its
// accesses.
type walkStream[T any] struct {
	Stream[T]
	tags []uint32 // the stream's cache's tags, for the length of one call
	line uint64   // global line of the last access (^0 before the first)
	set  uint64   // tag offset of line's set
	next int      // the first step at which the stream may leave line
	hits uint64   // MRU hits counted access by access
	// ok: line was seen in the MRU way of its set, and no slow path has
	// written that set since.
	ok bool
	// sharedStore: a store to a shared array, whose first access to a line
	// must reach chargeSlowAcc for the write-set record.
	sharedStore bool
}

// ChargeLoop charges, for each j in [lo, hi) and each stream in order, the
// access of element Off+j exactly as the element loop
//
//	for j := lo; j < hi; j++ {
//		for _, s := range streams {
//			if s.Write {
//				s.C.Store(s.Off+j, v)
//			} else {
//				s.C.Load(s.Off + j)
//			}
//		}
//	}
//
// would — same probes, LRU movement, write-set records, counters and time —
// without moving data: the caller computes over Data(). Hits and latency
// accumulate in the cursors, which the caller flushes as usual.
//
// It probes only where a stream enters a new line and counts everything else.
// A stream is ok while its line is known to sit in the MRU way of its set: an
// access to that line is then an MRU hit, which moves nothing. A load or a
// private store whose inline probe hits becomes ok. Every other access goes to
// chargeSlowAcc — among them a shared store's first access to a line, which
// records the line in the write-set, so that its later accesses are hits that
// record nothing new. chargeSlowAcc is the only writer of tags inside a call
// and writes only the set it names, so afterwards every stream in that set on
// another line stops being ok, and the stream itself is ok if a probe finds
// its line on top. Between two steps at which some stream may change line, a
// run in which every stream is ok is counted whole.
//
// Under the reference model every cursor probes refProbe, so no stream is
// ever ok and every access reaches chargeSlowAcc, which charges it by
// chargeRef. Elements that do not divide a line, or streams of spaces with
// different line sizes, take the same loop without counting runs.
func ChargeLoop[T any](lo, hi int, streams ...Stream[T]) {
	if lo >= hi || len(streams) == 0 {
		return
	}
	var buf [8]walkStream[T]
	if len(streams) > len(buf) {
		panic("numa: ChargeLoop of more than 8 streams")
	}
	c0 := streams[0].C
	perLine := uint64(1) << (c0.lineShift & 63) / c0.elemSize
	// With runs, every stream starts a line every 1<<shift elements.
	runs, shift := perLine*c0.elemSize == 1<<(c0.lineShift&63), uint(bits.TrailingZeros64(perLine))&63
	for k, s := range streams {
		// Into the array itself: a store through a slice of it would move it,
		// and every cursor it points at, to the heap.
		buf[k] = walkStream[T]{Stream: s, tags: s.C.c.tags, line: ^uint64(0), next: lo, sharedStore: s.Write && s.C.shared}
		runs = runs && s.C.lineShift == c0.lineShift
	}
	st := buf[:len(streams)]
	var run uint64 // steps counted whole: an MRU hit of every stream apiece
	for j := lo; j < hi; {
		b, slowed := hi, false
		for k := range st {
			s := &st[k]
			if j >= s.next {
				e := s.Off + j
				gl := s.C.line(e)
				if s.next = j + 1; runs {
					s.next = j + (e>>shift+1)<<shift - e
				}
				if gl != s.line {
					s.line, s.set, s.ok = gl, setBase(s.C.setBits, s.C.setMask, gl), false
				}
			}
			b = min(b, s.next)
			if s.ok {
				s.hits++
				continue
			}
			if !s.sharedStore && s.tags[s.set] == uint32(s.line)+1 {
				s.hits++
				s.ok = true
				continue
			}
			cu := s.C
			cu.lat += cu.a.chargeSlowAcc(cu.p, cu.c, s.line, cu.a.lineOf(s.Off+j), s.Write)
			for t := range st {
				if st[t].set == s.set && st[t].line != s.line {
					st[t].ok = false
				}
			}
			s.ok = s.tags[s.set] == uint32(s.line)+1
			slowed = true
		}
		j++
		// Without a slow path in the step, every stream ended it ok.
		for k := 0; slowed && k < len(st); k++ {
			if !st[k].ok {
				b = j
			}
		}
		if b > j {
			run += uint64(b - j)
			j = b
		}
	}
	for _, s := range st {
		s.C.hits += s.hits + run
	}
}
