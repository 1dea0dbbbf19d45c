package numa

// ReplayLoads charges the load sequence of a precomputed tree-walk trace
// through four cursors: an entry e >= 0 loads element e of bx, by, bm (in
// that order); an entry e < 0 loads elements 3c, 3c+1, 3c+2 of cells for
// c = ^e. Cache state, counters and flushed totals are exactly those of the
// per-access TouchMiss chain (touchEntry) over the same trace.
//
// Nearly every replayed load hits the MRU way of its set, and an MRU hit
// changes no cache state, so the loop is one question per entry — are all
// three loads MRU hits? — asked with the tags and the cache geometry in
// locals and answered by counting the entry. Any other entry is charged load
// by load through touchEntry (DESIGN.md §5.9).
//
// All four cursors must be bound to the same processor (they share one
// cache; otherwise, and under the reference model, every entry goes through
// touchEntry). Counted entries accumulate into bx, the others into their own
// cursors — flush all four before any rendezvous as usual; only the flushed
// totals are observable.
func ReplayLoads[T any](trace []int32, bx, by, bm, cells *Cursor[T]) {
	c := bx.c
	if refModel || by.c != c || bm.c != c || cells.c != c {
		for _, e := range trace {
			touchEntry(e, bx, by, bm, cells)
		}
		return
	}

	// One space, one line geometry; element size is fixed by T. The tags are
	// c's for the length of this call only (a cursor keeps no slice).
	es, shift := bx.elemSize, bx.lineShift&63
	baseX, baseY, baseM, baseC := bx.baseLine, by.baseLine, bm.baseLine, cells.baseLine
	tags, setBits, setMask := c.tags, bx.setBits, bx.setMask
	var fast uint64 // entries whose three loads were all MRU hits
	// prevLo is the line offset of the last counted leaf entry while no tag
	// has moved since: a leaf entry on the same line is three more MRU hits.
	prevLo := ^uint64(0)

	for _, e := range trace {
		if e >= 0 {
			lo := uint64(e) * es >> shift
			if lo == prevLo || mruAt(tags, setBits, setMask, baseX+lo) &&
				mruAt(tags, setBits, setMask, baseY+lo) &&
				mruAt(tags, setBits, setMask, baseM+lo) {
				fast++
				prevLo = lo
				continue
			}
		} else {
			// The three words sit on one line, or straddle two adjacent ones
			// (then the middle word shares a line with a neighbour, and a load
			// directly after a load of its line is an MRU hit).
			c3 := uint64(^e) * 3
			lo, l2 := c3*es>>shift, (c3+2)*es>>shift
			if mruAt(tags, setBits, setMask, baseC+lo) &&
				(l2 == lo || l2 == lo+1 && mruAt(tags, setBits, setMask, baseC+l2)) {
				fast++
				continue
			}
		}
		prevLo = ^uint64(0)
		touchEntry(e, bx, by, bm, cells)
	}

	bx.hits += 3 * fast
}

// touchEntry charges one trace entry load by load, each through its own
// cursor: the per-access chain ReplayLoads is defined by.
func touchEntry[T any](e int32, bx, by, bm, cells *Cursor[T]) {
	if e >= 0 {
		j := int(e)
		bx.TouchMiss(j)
		by.TouchMiss(j)
		bm.TouchMiss(j)
		return
	}
	c3 := int(^e) * 3
	cells.TouchMiss(c3)
	cells.TouchMiss(c3 + 1)
	cells.TouchMiss(c3 + 2)
}
