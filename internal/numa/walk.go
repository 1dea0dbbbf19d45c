package numa

import (
	"slices"
	"unsafe"

	"o2k/internal/sim"
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
// A call is charged by the footprint rule (chargeFootprint) when its streams
// all probe one cache of more than one set and no set of it receives more than
// cacheWays of the lines the call touches; any other call takes the element
// loop itself (chargeEach). Whether the rule applies, and which accesses it
// charges, is found by findFootprint once per distinct call and remembered in
// Space.fpMemo under the call's fpKey; a later call with the same key charges
// the remembered footprint against the current tags. That is exact because
// findFootprint reads only what the key names — the index lists' contents
// (hence the contract on Stream), the offsets, the arrays' layout, the
// cache's geometry, the streams' flags — and never a tag or a clock.
//
// Under the reference model every cursor probes refProbe, whose one set the
// rule declines, so chargeEach sends every access to chargeSlowAcc, which
// charges it by chargeRef.
func ChargeLoop[T any](lo, hi int, streams ...Stream[T]) {
	if lo >= hi || len(streams) == 0 {
		return
	}
	if len(streams) > 8 {
		panic("numa: ChargeLoop of more than 8 streams")
	}
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
		fp.events, fp.last = slices.Clone(fp.events), slices.Clone(fp.last)
		if sp.fpMemo == nil {
			sp.fpMemo = make(map[fpKey]footprint)
		}
		sp.fpMemo[key] = fp
	case memoAudit != nil:
		memoAudit(fp, findFootprint(lo, hi, streams))
	}
	if footprintTally != nil {
		footprintTally(key, hit, fp)
	}
	switch {
	case !fp.took:
		chargeEach(lo, hi, streams)
	case chargeAudit != nil:
		f, n := fp, uint64(hi-lo)
		auditCharge(streams, func(ss []Stream[T]) {
			for _, s := range ss {
				s.C.hits += n
			}
			chargeFootprint(ss, f.events, f.last)
		}, func(ss []Stream[T]) { chargeEach(lo, hi, ss) })
	default:
		for _, s := range streams {
			s.C.hits += uint64(hi - lo)
		}
		chargeFootprint(streams, fp.events, fp.last)
	}
}

// chargeEach is the element loop of ChargeLoop's doc comment, access by access
// with the inline probe of Cursor.Load and Cursor.Store: what charges a call
// the footprint rule declines — under refProbe's one set, on streams of two
// caches, or with more than cacheWays of its lines in one set.
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

// fpKey is everything the footprint of a ChargeLoop call depends on: its
// steps and, per stream in order, the identity of its index list (nil for a
// contiguous stream), its offset, whether it stores, its array (by base line:
// address ranges are never reused within a Space) and its cursor's cache. The
// cache is per stream, so a call whose streams probe two caches never shares
// an entry with one whose streams all probe one. The list's address keeps the
// list alive, so it cannot name another list while the entry lives.
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

// footprint is what findFootprint finds for a call: whether the rule applies,
// the most lines one cache set receives (up to 7; 0 when the streams' caches
// decline before any line is counted), and, if the rule applies, the accesses
// it must charge, in order, and the lines it must move to MRU after them.
type footprint struct {
	took         bool
	fullest      uint8
	events, last []fpEvent
}

// footprintTally, when set, sees every footprint decision: a ChargeLoop call's
// key and whether the memo answered it, or the zero key for a ChargeLoads
// call, and the footprint. memoAudit, when set, sees every footprint the memo
// answers beside the one findFootprint finds for the call anew. chargeAudit,
// when set, gets every charge the rule takes (auditCharge). Like refModel they
// are for tests only (export_test.go, dir_test.go) and change only while
// nothing runs.
var (
	footprintTally func(key fpKey, hit bool, fp footprint)
	memoAudit      func(memo, fresh footprint)
	chargeAudit    func(c *cache, p *sim.Proc, charge, each func() (uint64, sim.Time))
)

// auditCharge is a footprint charge under chargeAudit: charge charges the
// footprint through the streams it is given, each the same accesses one by
// one. chargeAudit gets both as functions that return the hits and latency
// their cursors hold unflushed: charge on streams, each on copies of their
// cursors as the charge found them.
func auditCharge[T any](streams []Stream[T], charge, each func([]Stream[T])) {
	var ss, cs [8]Stream[T]
	var cps [8]Cursor[T]
	n := copy(ss[:], streams)
	first := func(st []Stream[T], k int) int {
		return slices.IndexFunc(st[:k+1], func(t Stream[T]) bool { return t.C == st[k].C })
	}
	for k, s := range ss[:n] {
		cs[k] = s
		if i := first(ss[:n], k); i == k {
			cps[k] = *s.C
			cs[k].C = &cps[k]
		} else {
			cs[k].C = cs[i].C
		}
	}
	sums := func(st []Stream[T]) (hits uint64, lat sim.Time) {
		for k, s := range st {
			if first(st, k) == k {
				hits, lat = hits+s.C.hits, lat+s.C.lat
			}
		}
		return hits, lat
	}
	cu := ss[0].C
	chargeAudit(cu.c, cu.p, func() (uint64, sim.Time) { charge(ss[:n]); return sums(ss[:n]) },
		func() (uint64, sim.Time) { each(cs[:n]); return sums(cs[:n]) })
}

// fpEvent is one access the footprint rule must charge: stream k's first
// access of array-local line li, or, with record, the first store of a
// shared-store stream to a line an earlier access of its array touched. In a
// footprint's last list it is a line to move to MRU.
type fpEvent struct {
	li     uint32
	k      uint8
	record bool
}

// fpList is one distinct element list of a call: streams with the same Off and
// the same Idx access the same elements at every step. A nil idx is the
// contiguous list, element off+j at step j.
type fpList struct {
	off int
	idx []int32
}

// fpVisit is a stream that can add to the footprint when its list reaches a
// new line: going forward, the first stream of its array on its list and the
// first shared store among them; going back, the last stream of its array on
// its list. Every other stream meets the line beside one of these.
type fpVisit struct {
	k, list, arr uint8
}

// chargeFootprint is the footprint rule: it charges the footprint of a call
// whose streams all probe one cache of more than one set, no set of which
// receives more than cacheWays of the call's lines. The caller has counted
// every access as an MRU hit.
//
// The rule is exact. Inside a call only its accesses write tags, each in its
// own set, and a hit costs cacheHitNS in any way, so each set evolves on its
// own. In a set that receives at most cacheWays of the call's lines, none is
// evicted before its last access, so a line's first access finds the set's
// contents as the element loop leaves them and is charged as the element loop
// charges it (an MRU hit counted, else chargeSlowAcc), every other access is a
// hit, and the set ends with the lines by last access on top, its other
// residents below in their old order. So the rule charges the first accesses
// in element-loop order (events: the counters, the latency and the sharer
// arena come out as the element loop leaves them), records each line a
// shared-store stream writes once, in first-store order (only the first store
// of an epoch records), and moves the lines of the sets that received more
// than one to MRU by last access (last).
func chargeFootprint[T any](streams []Stream[T], events, last []fpEvent) {
	c0 := streams[0].C
	c, me := c0.c, c0.p.ID()
	for _, ev := range events {
		s := &streams[ev.k]
		cu := s.C
		gl := cu.baseLine + uint64(ev.li)
		switch {
		case ev.record:
			cu.a.recordWrite(me, ev.li)
		case !(s.Write && cu.shared) && mruAt(c.tags, cu.setBits, cu.setMask, gl):
		default:
			cu.hits--
			cu.lat += cu.a.chargeSlowAcc(cu.p, c, gl, ev.li, s.Write)
		}
	}
	for _, ev := range last {
		if gl := streams[ev.k].C.baseLine + uint64(ev.li); !c.mruHit(gl) {
			c.accessSlow(gl)
		}
	}
}

// occupancy is the footprint rule's one test: it counts the first accesses'
// lines (event ev: line ev.li of the array at base line bases[ev.k]) into the
// sets of c, leaving ep<<3 | count per set in fpSets, and returns the most one
// set receives (up to 7) and whether that is at most cacheWays.
func (sp *Space) occupancy(c *cache, bases []uint64, events []fpEvent) footprint {
	if sets := int(c.setMask + 1); len(sp.fpSets) < sets {
		sp.fpSets = make([]uint64, sets)
	}
	sp.fpEpoch++
	ep, most := sp.fpEpoch, uint64(0)
	for _, ev := range events {
		if ev.record {
			continue
		}
		set, n := setBase(c.setBits, c.setMask, bases[ev.k]+uint64(ev.li))/cacheWays, uint64(1)
		if v := sp.fpSets[set]; v>>3 == ep {
			n = min(v&7+1, 7)
		}
		sp.fpSets[set] = ep<<3 | n
		most = max(most, n)
	}
	return footprint{took: most <= cacheWays, fullest: uint8(most)}
}

// findFootprint decides whether the footprint rule applies to a call and, if
// it does, returns what chargeFootprint must charge: each line's first access
// per array, and each shared-store stream's first store to it, in element-loop
// order; and the lines of the sets that receive more than one, by last access.
// It reads no tag and changes nothing but its scratch, which the lists it
// returns are, good until its next call.
//
// The passes run over a stamp per array-local line (Space.fpLines). The first
// (markReach) scans each distinct element list once and logs the steps at
// which it reaches a line it has not reached before: at every other step each
// stream meets a line its list brought to it earlier. The second merges the
// logs into step order and, at each logged step, visits the streams that can
// add something (fpVisit) in stream order, stamping per line the arrays that
// accessed it and those that stored it through a shared-store stream, and logs
// each new (array, line) pair and each first shared store (Space.fpEvents).
// occupancy counts the pairs per set. If a set receives more than one, the
// two passes run again from the last step back, visiting the last stream of
// each array on each list in reverse stream order, and meet each pair at its
// last access: the crowded sets' pairs, so met and reversed, are the last list.
func findFootprint[T any](lo, hi int, streams []Stream[T]) footprint {
	c0 := streams[0].C
	c := c0.c
	if c.setMask == 0 {
		return footprint{}
	}
	var (
		lists              [8]fpList
		firsts, lasts      [8]fpVisit
		sbase              [8]uint64 // base line per stream
		sstore             [8]bool
		visit              [8]fpVisit // per stream: its list and array
		nl, nf, nlast      int
		lines              int    // array-local lines the stamp must cover
		seen, wrt, metBack uint64 // bit 8*list+array: a stream, a shared store met
	)
	for k := range streams {
		s := &streams[k]
		cu := s.C
		if cu.c != c {
			return footprint{}
		}
		sbase[k], sstore[k] = cu.baseLine, s.Write && cu.shared
		a := slices.Index(sbase[:k+1], cu.baseLine) // an array is named by its first stream
		if a == k {
			lines = max(lines, cu.a.lines())
		}
		l := 0
		for l < nl && !(lists[l].off == s.Off && unsafe.SliceData(lists[l].idx) == unsafe.SliceData(s.Idx)) {
			l++
		}
		if l == nl {
			lists[l], nl = fpList{s.Off, s.Idx}, nl+1
		}
		visit[k] = fpVisit{uint8(k), uint8(l), uint8(a)}
		switch pair := uint64(1) << (8*l + a); {
		case seen&pair == 0:
			firsts[nf], nf = visit[k], nf+1
			seen |= pair
			if sstore[k] {
				wrt |= pair
			}
		case sstore[k] && wrt&pair == 0:
			firsts[nf], nf = visit[k], nf+1
			wrt |= pair
		}
	}
	for k := len(streams) - 1; k >= 0; k-- {
		if pair := uint64(1) << (8*visit[k].list + visit[k].arr); metBack&pair == 0 {
			lasts[nlast], nlast = visit[k], nlast+1
			metBack |= pair
		}
	}
	sp := c0.a.sp
	if len(sp.fpLines) < lines {
		sp.fpLines = make([]uint64, lines)
	}
	stamps := sp.fpLines
	// A line's stamp holds, in its low bits, the arrays that accessed it and,
	// shifted by 8, those that stored it through a shared-store stream.
	events := sp.fpEvents[:0]
	from := sp.markReach(lists[:nl], lo, hi, false, c0.elemSize, c0.lineShift)
	sp.fpEpoch++
	ep, pos := sp.fpEpoch, from
	var lis [8]uint32
	for fresh := sp.nextReach(nl, &from, &pos, &lis); fresh != 0; fresh = sp.nextReach(nl, &from, &pos, &lis) {
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
	fp := sp.occupancy(c, sbase[:], events)
	if fp.events = events; !fp.took || fp.fullest < 2 {
		return fp
	}
	last := sp.fpLast[:0]
	from = sp.markReach(lists[:nl], lo, hi, true, c0.elemSize, c0.lineShift)
	sp.fpEpoch++
	ep, pos = sp.fpEpoch, from
	for fresh := sp.nextReach(nl, &from, &pos, &lis); fresh != 0; fresh = sp.nextReach(nl, &from, &pos, &lis) {
		for _, f := range lasts[:nlast] {
			if fresh>>f.list&1 == 0 {
				continue
			}
			li, bit := lis[f.list], uint64(1)<<f.arr
			var m uint64
			if v := stamps[li]; v>>16 == ep {
				m = v & 0xffff
			}
			if m&bit != 0 {
				continue
			}
			stamps[li] = ep<<16 | m | bit
			if set := setBase(c.setBits, c.setMask, sbase[f.k]+uint64(li)) / cacheWays; sp.fpSets[set]&7 > 1 {
				last = append(last, fpEvent{li: li, k: f.k})
			}
		}
	}
	slices.Reverse(last)
	sp.fpLast, fp.last = last, last
	return fp
}

// markReach logs, per list, each step s (counted from the first step it
// scans, going forward or back) at which the list reaches a line it has not
// reached before, as s<<32 | line: list l's log is fpReach[from[l]:from[l+1]].
func (sp *Space) markReach(lists []fpList, lo, hi int, back bool, es uint64, shift uint) (from [9]int) {
	// A list reaches at most min(hi-lo, lines) lines.
	if need := len(lists) * min(hi-lo, len(sp.fpLines)); len(sp.fpReach) < need {
		sp.fpReach = make([]uint64, need)
	}
	for l, ls := range lists {
		sp.fpEpoch++
		from[l+1] = from[l] + reachList(sp.fpReach[from[l]:], ls, lo, hi, back, es, shift, sp.fpLines, sp.fpEpoch<<16)
	}
	return from
}

// reachList is markReach for one list, stamping the lines it reaches with
// tag, apart so that its loop keeps its operands in registers.
func reachList(reach []uint64, ls fpList, lo, hi int, back bool, es uint64, shift uint, stamps []uint64, tag uint64) int {
	n := 0
	if ls.idx != nil && !back { // the common pass, its loop bare
		for s, x := range ls.idx[lo:hi] {
			if li := uint64(ls.off+int(x)) * es >> (shift & 63); stamps[li] != tag {
				stamps[li] = tag
				reach[n] = uint64(s)<<32 | li
				n++
			}
		}
		return n
	}
	for s := range hi - lo {
		j := lo + s
		if back {
			j = hi - 1 - s
		}
		e := ls.off + j
		if ls.idx != nil {
			e = ls.off + int(ls.idx[j])
		}
		if li := uint64(e) * es >> (shift & 63); stamps[li] != tag {
			stamps[li] = tag
			reach[n] = uint64(s)<<32 | li
			n++
		}
	}
	return n
}

// nextReach moves the lists' logs on to their next step, the earliest among
// the unread entries reach[pos[l]:from[l+1]], and returns the lists that reach
// a line there, as bits, with their lines in lis: 0 once every log is read.
func (sp *Space) nextReach(nl int, from, pos *[9]int, lis *[8]uint32) int {
	reach, step := sp.fpReach, ^uint64(0)
	for l := range nl {
		if pos[l] < from[l+1] {
			step = min(step, reach[pos[l]]>>32)
		}
	}
	fresh := 0
	for l := range nl {
		if r := pos[l]; r < from[l+1] && reach[r]>>32 == step {
			lis[l], fresh, pos[l] = uint32(reach[r]), fresh|1<<l, r+1
		}
	}
	return fresh
}
