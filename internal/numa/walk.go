package numa

import (
	"math/bits"
	"slices"
	"unsafe"
)

// Stream is one access stream of ChargeLoop: at step j it loads element Off+j
// of the array C is bound to — element Off+Idx[j] when Idx is set — or stores
// it when Write is set.
//
// An index list must not be modified after it is passed: the Space remembers
// the footprint of each call by the list's identity (its first element's
// address and its length), not by its contents, for as long as the Space
// lives. Plan lists, built once and only read, are what every caller passes.
type Stream[T any] struct {
	C     *Cursor[T]
	Off   int
	Idx   []int32
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
// access of element Off+j (Off+Idx[j] for an index stream) exactly as the
// element loop
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
// A call of index streams is charged by the footprint rule (chargeFootprint)
// when the lines it touches sit in pairwise distinct cache sets. Any other
// call with an index stream takes the element loop itself (chargeEach), and a
// call of contiguous streams is walked. The rule's decision and the accesses
// it charges are found once per distinct call and remembered on the Space
// (chargeIndexed).
//
// The walk probes only where a stream enters a new line and counts everything
// else. A stream is ok while its line is known to sit in the MRU way of its
// set: an access to that line is then an MRU hit, which moves nothing. A load
// or a private store whose inline probe hits becomes ok. Every other access
// goes to chargeSlowAcc — among them a shared store's first access to a line,
// which records the line in the write-set, so that its later accesses are hits
// that record nothing new. chargeSlowAcc is the only writer of tags inside a
// call and writes only the set it names, so afterwards every stream in that
// set on another line stops being ok, and the stream itself is ok if a probe
// finds its line on top. Between two steps at which some stream may change
// line, a run in which every stream is ok is counted whole.
//
// Under the reference model every cursor probes refProbe, so no stream is
// ever ok, the footprint rule never applies, and every access reaches
// chargeSlowAcc, which charges it by chargeRef. Elements that do not divide a
// line, or streams of spaces with different line sizes, take the same loop
// without counting runs.
func ChargeLoop[T any](lo, hi int, streams ...Stream[T]) {
	if lo >= hi || len(streams) == 0 {
		return
	}
	var buf [8]walkStream[T]
	if len(streams) > len(buf) {
		panic("numa: ChargeLoop of more than 8 streams")
	}
	for _, s := range streams {
		if s.Idx != nil {
			chargeIndexed(lo, hi, streams)
			return
		}
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

// chargeEach is the element loop of ChargeLoop's doc comment, access by access
// with the inline probe of Cursor.Load and Cursor.Store: what charges a call
// with an index stream that the footprint rule declines. (The walk would
// serve, but the index branch in its step loop cost the stencil's contiguous
// walk 15 %.)
func chargeEach[T any](lo, hi int, streams []Stream[T]) {
	for j := lo; j < hi; j++ {
		for k := range streams {
			s := &streams[k]
			cu, e := s.C, s.Off+j
			if s.Idx != nil {
				e = s.Off + int(s.Idx[j])
			}
			if gl := cu.line(e); !(s.Write && cu.shared) && mruAt(cu.c.tags, cu.setBits, cu.setMask, gl) {
				cu.hits++
			} else {
				cu.slow(e, gl, s.Write)
			}
		}
	}
}

// chargeIndexed charges a ChargeLoop call with an index stream: by the
// footprint rule if it applies, else by the element loop. Whether it applies,
// and which accesses it must charge, is found by findFootprint once per
// distinct call and remembered in Space.fpMemo under the call's fpKey; a
// later call with the same key charges the remembered footprint against the
// current tags. That is exact because findFootprint reads only what the key
// names — the index lists' contents (hence the contract on Stream), the
// arrays' layout, the cache's geometry, the streams' flags — and never a tag
// or a clock.
func chargeIndexed[T any](lo, hi int, streams []Stream[T]) {
	key := fpKey{lo: lo, hi: hi}
	for k, s := range streams {
		cu := s.C
		key.streams[k] = fpKeyStream{idx: unsafe.SliceData(s.Idx), n: len(s.Idx), off: s.Off, base: cu.baseLine, c: cu.c}
		if s.Write {
			key.streams[k].write = 1
		}
	}
	sp := streams[0].C.a.sp
	fp, hit := sp.fpMemo[key]
	switch {
	case !hit:
		fp = findFootprint(lo, hi, streams)
		fp.events = slices.Clone(fp.events)
		if sp.fpMemo == nil {
			sp.fpMemo = make(map[fpKey]footprint)
		}
		sp.fpMemo[key] = fp
	case footprintAudit != nil:
		footprintAudit(fp, findFootprint(lo, hi, streams))
	}
	if footprintTally != nil {
		footprintTally(key, hit, fp.took)
	}
	if fp.took {
		chargeFootprint(lo, hi, streams, fp.events)
	} else {
		chargeEach(lo, hi, streams)
	}
}

// fpKey is everything the footprint of a ChargeLoop call depends on: its
// steps and, per stream in order, the identity of its index list, its offset,
// whether it stores, its array (by base line: address ranges are never
// reused within a Space) and its cursor's cache. The cache is per stream, so
// a call whose streams probe two caches never shares an entry with one whose
// streams all probe one. The list's address keeps the list alive, so it
// cannot name another list while the entry lives.
type fpKey struct {
	lo, hi  int
	streams [8]fpKeyStream
}

// fpKeyStream is one stream of an fpKey, in whole words: without padding the
// map hashes and compares the key as one block of memory.
type fpKeyStream struct {
	idx    *int32
	n, off int
	base   uint64
	c      *cache
	write  uint64 // 1 for a store
}

// footprint is what findFootprint finds for a call: whether the rule applies
// and, if it does, the accesses it must charge, in order.
type footprint struct {
	took   bool
	events []fpEvent
}

// footprintTally, when set, sees every ChargeLoop call with an index stream:
// its key, whether the memo answered it, and whether the footprint rule
// charged it. footprintAudit, when set, sees every footprint the memo answers
// beside the one findFootprint finds for the call anew. Like refModel they
// are for tests only (export_test.go) and change only while nothing runs.
var (
	footprintTally func(key fpKey, hit, took bool)
	footprintAudit func(memo, fresh footprint)
)

// fpEvent is one access the footprint rule must charge: stream k's first
// access of array-local line li, or, with record, the first store of a
// shared-store stream to a line an earlier access of its array touched.
type fpEvent struct {
	li     uint32
	k      uint8
	record bool
}

// fpList is one distinct element list of a call: streams with the same Off and
// the same Idx access the same elements at every step.
type fpList struct {
	off int
	idx []int32
}

// fpFirst is a stream that can add to the footprint when its list reaches a
// new line: the first stream of its array on its list, and the first shared
// store among them. Every other stream meets the line after one of these.
type fpFirst struct {
	k, list, arr uint8
}

// chargeFootprint is ChargeLoop's footprint rule: it charges the call whose
// footprint findFootprint found to be events. The rule applies when every
// stream is an index stream, they all probe one cache of more than one set,
// and the distinct lines they touch in [lo, hi) sit in pairwise distinct sets
// of it.
//
// The rule is exact. Inside a call only chargeSlowAcc writes tags, and only in
// the set of the line it charges; with every line of the footprint alone in
// its set, an access to one of them never moves another. A line's first
// access is therefore its only access that can find it outside the MRU way,
// and each later access is an MRU hit that moves nothing. So the rule charges
// every first access as the element loop does — counted if the line sits in
// the MRU way (a load or a private store), else chargeSlowAcc — and counts
// every other access as an MRU hit. A shared store reaches chargeSlowAcc on
// every access in the element loop, but only its first store to a line in an
// epoch records anything, so the rule records each line a shared-store stream
// writes once. First accesses and first stores are charged in element-loop
// order, so the write-sets and the sharer arena come out as the element loop
// leaves them.
func chargeFootprint[T any](lo, hi int, streams []Stream[T], events []fpEvent) {
	n := uint64(hi - lo)
	for _, s := range streams {
		s.C.hits += n
	}
	c0 := streams[0].C
	c, me := c0.c, c0.p.ID()
	for _, ev := range events {
		s := &streams[ev.k]
		cu := s.C
		gl := cu.baseLine + uint64(ev.li)
		switch {
		case ev.record:
			cu.a.recordWrite(me, ev.li)
		case !(s.Write && cu.shared) && c.tags[setBase(cu.setBits, cu.setMask, gl)] == uint32(gl)+1:
		default:
			cu.hits--
			cu.lat += cu.a.chargeSlowAcc(cu.p, c, gl, ev.li, s.Write)
		}
	}
}

// findFootprint decides whether the footprint rule applies to a call and, if
// it does, returns the accesses chargeFootprint must charge: each line's first
// access per array, and each shared-store stream's first store to it, in
// element-loop order. It reads no tag and changes nothing but its scratch; the
// events it returns are that scratch, good until its next call.
//
// Two passes find the footprint, over a stamp per array-local line
// (Space.fpLines). The first (markReach) scans each distinct element list
// once and logs the steps at which the list reaches a line it has not reached
// before (Space.fpReach); at every other step each stream meets a line that
// an earlier step brought to it through its list, and has nothing to charge.
// The second merges the lists' logs into step order and, at each logged step,
// visits the streams that can add something (fpFirst) in stream order,
// stamping per line the arrays that accessed it and those that stored it
// through a shared-store stream: each new (array, line) pair stamps its set
// (Space.occupy) and is logged, and a second pair in one set ends the rule.
// The log (Space.fpEvents) is the footprint.
//
// The reference model's refProbe has one set, so under it the rule never
// applies, and chargeEach sends every access to chargeSlowAcc.
func findFootprint[T any](lo, hi int, streams []Stream[T]) footprint {
	c0 := streams[0].C
	c := c0.c
	if c.setMask == 0 {
		return footprint{}
	}
	var (
		lists      [8]fpList
		firsts     [8]fpFirst
		bases      [8]uint64 // base line per array
		sstore     [8]bool
		nl, na, nf int
		lines      int    // array-local lines the stamp must cover
		seen, wrt  uint64 // bit 8*list+array: a stream, a shared store met
	)
	for k := range streams {
		s := &streams[k]
		cu := s.C
		if cu.c != c || s.Idx == nil {
			return footprint{}
		}
		a := 0
		for a < na && bases[a] != cu.baseLine {
			a++
		}
		if a == na {
			bases[a], na = cu.baseLine, na+1
			lines = max(lines, cu.a.lines())
		}
		l := 0
		for l < nl && !(lists[l].off == s.Off && &lists[l].idx[0] == &s.Idx[0]) {
			l++
		}
		if l == nl {
			lists[l], nl = fpList{s.Off, s.Idx}, nl+1
		}
		sstore[k] = s.Write && cu.shared
		switch pair := uint64(1) << (8*l + a); {
		case seen&pair == 0:
			firsts[nf], nf = fpFirst{uint8(k), uint8(l), uint8(a)}, nf+1
			seen |= pair
			if sstore[k] {
				wrt |= pair
			}
		case sstore[k] && wrt&pair == 0:
			firsts[nf], nf = fpFirst{uint8(k), uint8(l), uint8(a)}, nf+1
			wrt |= pair
		}
	}
	sp := c0.a.sp
	if len(sp.fpLines) < lines {
		sp.fpLines = make([]uint64, lines)
	}
	if sets := int(c.setMask + 1); len(sp.fpSets) < sets {
		sp.fpSets = make([]uint64, sets)
	}
	stamps, es, shift := sp.fpLines, c0.elemSize, c0.lineShift&63
	// Pass 1: list l stamps the lines it reaches with an epoch of its own and
	// logs each first reach as step<<32 | line, in reach[from[l]:from[l+1]];
	// a list reaches at most min(hi-lo, lines) lines.
	if need := nl * min(hi-lo, lines); len(sp.fpReach) < need {
		sp.fpReach = make([]uint64, need)
	}
	var from [9]int
	reach := sp.fpReach
	for l, ls := range lists[:nl] {
		sp.fpEpoch++
		from[l+1] = from[l] + markReach(reach[from[l]:], ls, lo, hi, es, shift, stamps, sp.fpEpoch<<16)
	}
	// Pass 2: a line's stamp holds the arrays that accessed it and, shifted by
	// 8, those that stored it through a shared-store stream.
	sp.fpEpoch++
	ep := sp.fpEpoch
	events := sp.fpEvents[:0]
	pos := from
	var lis [8]uint32
	for {
		// The next step at which some list reaches a new line, and the lists
		// that do.
		step := ^uint64(0)
		for l := range nl {
			if pos[l] < from[l+1] {
				step = min(step, reach[pos[l]]>>32)
			}
		}
		if step == ^uint64(0) {
			break
		}
		fresh := 0
		for l := range nl {
			if r := pos[l]; r < from[l+1] && reach[r]>>32 == step {
				lis[l], fresh, pos[l] = uint32(reach[r]), fresh|1<<l, r+1
			}
		}
		for _, f := range firsts[:nf] {
			if fresh>>f.list&1 == 0 {
				continue
			}
			li := lis[f.list]
			var m uint64
			if v := stamps[li]; v>>16 == ep {
				m = v & 0xffff
			}
			var ev fpEvent
			switch bit := uint64(1) << f.arr; {
			case m&bit == 0:
				if sp.occupy(setBase(c0.setBits, c0.setMask, bases[f.arr]+uint64(li))/cacheWays, ep) > 1 {
					sp.fpEvents = events
					return footprint{}
				}
				m |= bit
				if sstore[f.k] {
					m |= bit << 8
				}
				ev = fpEvent{li: li, k: f.k}
			case sstore[f.k] && m&(bit<<8) == 0:
				m |= bit << 8
				ev = fpEvent{li: li, k: f.k, record: true}
			default:
				continue
			}
			events = append(events, ev)
			stamps[li] = ep<<16 | m
		}
	}
	sp.fpEvents = events
	return footprint{true, events}
}

// markReach stamps with tag every line list ls reaches in steps [lo, hi) and
// writes to reach, as (j-lo)<<32 | line, each step j at which it reaches a
// line it has not reached before; it returns how many it wrote. It is pass 1
// of chargeFootprint, apart so that its loop keeps its operands in registers.
func markReach(reach []uint64, ls fpList, lo, hi int, es uint64, shift uint, stamps []uint64, tag uint64) int {
	n := 0
	for j, x := range ls.idx[lo:hi] {
		if li := uint64(ls.off+int(x)) * es >> (shift & 63); stamps[li] != tag {
			stamps[li] = tag
			reach[n] = uint64(j)<<32 | li
			n++
		}
	}
	return n
}

// occupy counts a line into cache set set for the pass of epoch ep and
// returns how many the pass has put there, up to 7: fpSets holds, per set,
// ep<<3 | that count for the last pass that put a line there.
func (sp *Space) occupy(set, ep uint64) uint64 {
	n := uint64(1)
	if v := sp.fpSets[set]; v>>3 == ep {
		n = min(v&7+1, 7)
	}
	sp.fpSets[set] = ep<<3 | n
	return n
}
