package numa

import (
	"math/bits"
	"slices"
	"unsafe"
)

// A tree-walk load trace comes in two forms, both defined here and nowhere
// else. Entries ([]int32) name elements: e >= 0 loads element e of bx, by, bm
// (in that order); e < 0 loads elements 3c, 3c+1, 3c+2 of cells for c = ^e.
// Line symbols ([]uint16, CompileLoads) name what a cache sees of an entry at
// one element and line size, lo<<2|kind: a leaf loads line lo of each of bx,
// by, bm; a cell triple sits on line lo of cells; a straddling one spans lo
// and lo+1 (its middle word shares a line with a neighbour, so it is an MRU
// hit wherever it falls).
const (
	symLeaf = iota
	symCell
	symStraddle

	maxSymLine = 1<<14 - 1 // line offsets a symbol can name: sym+1 fits a uint16
)

// CompileLoads appends to dst the line symbols of the entries of trace, for
// elements of type T in lines of lineBytes. It reports false, and appends
// nothing, when an entry has none (a cell triple wider than two lines, a line
// offset past the symbol range): replay the entries themselves (ReplayLoads).
func CompileLoads[T any](dst []uint16, lineBytes int, trace []int32) ([]uint16, bool) {
	es, shift := elemBytes[T](), uint(bits.TrailingZeros(uint(lineBytes)))&63
	n := len(dst)
	dst = slices.Grow(dst, len(trace))
	out := dst[n : n+len(trace)]
	for i, e := range trace {
		var lo, kind uint64
		if e >= 0 {
			lo = uint64(e) * es >> shift
		} else {
			c3 := uint64(^e) * 3
			lo = c3 * es >> shift
			kind = symCell + ((c3+2)*es>>shift - lo)
		}
		if kind > symStraddle || lo >= maxSymLine {
			return dst, false
		}
		out[i] = uint16(lo<<2 | kind)
	}
	return dst[:n+len(trace)], true
}

// elemBytes is the simulated size of a T (a zero-size type occupies a byte).
func elemBytes[T any]() uint64 {
	var z T
	return max(uint64(unsafe.Sizeof(z)), 1)
}

// ReplayLoads charges the load sequence of a tree-walk trace, given as
// entries, through four cursors. Cache state, counters and the flushed totals
// of the four cursors together are exactly those of the per-access TouchMiss
// chain (touchEntry) over the same trace; flush all four before any
// rendezvous as usual.
func ReplayLoads[T any](trace []int32, bx, by, bm, cells *Cursor[T]) {
	var buf [512]uint16
	lineBytes := 1 << bx.lineShift
	for len(trace) > 0 {
		part := trace[:min(len(trace), len(buf))]
		trace = trace[len(part):]
		syms, ok := CompileLoads[T](buf[:0], lineBytes, part)
		if !ok || !ReplayLines(syms, lineBytes, bx, by, bm, cells) {
			for _, e := range part {
				touchEntry(e, bx, by, bm, cells)
			}
		}
	}
}

// touchEntry charges one trace entry load by load, each through its own
// cursor: the per-access chain the replay is defined by.
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

// pinTable is what lets the replay count an entry without probing for it
// (DESIGN.md §5.9 "One probe"). Sets are independent: a line seen in the MRU
// way of its set stays there until some tag of that set is written. st[sym]
// says every line of sym was seen there and none of their sets was written
// since. The replay's own probe pins; the table is kept exact by the only two
// writers of tags, accessSlow and invalidate, which unpin the set they touch.
type pinTable struct {
	base [4]uint64 // base lines of the bound quartet: bx, by, bm, cells
	st   []bool    // per symbol: pinned
	// setSym is, per set, 1 + the leaf or one-line cell symbol of the line a pin
	// last found in its MRU way (0: none yet): what a write to the set unpins.
	setSym []uint16
}

// hold makes sym, the leaf or one-line cell symbol of line, what a write to
// line's set unpins.
func (pt *pinTable) hold(c *cache, line uint64, sym int) {
	pt.setSym[setBase(c.setBits, c.setMask, line)/cacheWays] = uint16(sym + 1)
}

// unpin takes the pins off the set whose tags start at base: the symbol of
// its line and, for cell line lo, the straddles (lo, lo+1) and (lo-1, lo).
func (pt *pinTable) unpin(base uint64) {
	s := int(pt.setSym[base/cacheWays]) - 1
	if s < 0 {
		return
	}
	pt.st[s] = false
	if s&3 == symCell {
		pt.st[s+1], pt.st[max(s-3, symCell)] = false, false
	}
}

// ReplayLines is ReplayLoads over the line symbols CompileLoads made of the
// trace for lines of lineBytes. It reports false, having charged nothing,
// where the caller must replay the entries instead: on another line size, for
// cursors on different caches, when cells is also one of the leaf arrays (a
// line would have two symbols), and under the reference model.
//
// The loop asks one question per entry — is its symbol pinned? — and counts
// it. Any other entry probes its lines: all in the MRU way is still a count
// and no state change, and pins the symbol; otherwise each load goes through
// loadLine.
func ReplayLines[T any](syms []uint16, lineBytes int, bx, by, bm, cells *Cursor[T]) bool {
	c, quartet := bx.c, [4]uint64{bx.baseLine, by.baseLine, bm.baseLine, cells.baseLine}
	if lineBytes != 1<<bx.lineShift || refModel || by.c != c || bm.c != c || cells.c != c || slices.Contains(quartet[:3], quartet[3]) {
		return false
	}
	if c.pin == nil {
		c.pin = &pinTable{setSym: make([]uint16, c.setMask+1)}
	}
	pt := c.pin
	if pt.base != quartet { // other arrays: nothing of theirs is pinned
		pt.base = quartet
		n := 4 * (min(max(bx.a.lines(), by.a.lines(), bm.a.lines(), cells.a.lines()), maxSymLine) + 1)
		pt.st = slices.Grow(pt.st[:0], n)[:n]
		clear(pt.st)
		clear(pt.setSym)
	}
	// The tags are c's for the length of this call only (a cursor keeps no slice).
	st, tags, setBits, setMask := pt.st, c.tags, bx.setBits, bx.setMask
	var fast, hits uint64 // entries counted whole; hits of the loads of the others
	for _, sym := range syms {
		s := int(sym)
		if s < len(st) && st[s] {
			fast++
			continue
		}
		lo, cell := uint64(s>>2), s&^3|symCell // cell: the one-line cell symbol of line lo
		gx, gy, gm, gc := quartet[0]+lo, quartet[1]+lo, quartet[2]+lo, quartet[3]+lo
		pin := s < len(st)-4 // the table covers the symbols of lines lo and lo+1
		switch s & 3 {
		case symLeaf:
			if !mruAt(tags, setBits, setMask, gx) || !mruAt(tags, setBits, setMask, gy) || !mruAt(tags, setBits, setMask, gm) {
				hits += loadLine(bx, gx, lo) + loadLine(by, gy, lo) + loadLine(bm, gm, lo)
				continue
			}
			if pin {
				pt.hold(c, gx, s)
				pt.hold(c, gy, s)
				pt.hold(c, gm, s)
			}
		case symCell:
			if !mruAt(tags, setBits, setMask, gc) {
				hits += loadLine(cells, gc, lo) + 2
				continue
			}
			if pin {
				pt.hold(c, gc, cell)
			}
		default:
			if !mruAt(tags, setBits, setMask, gc) || !mruAt(tags, setBits, setMask, gc+1) {
				hits += loadLine(cells, gc, lo) + loadLine(cells, gc+1, lo+1) + 1
				continue
			}
			if pin {
				pt.hold(c, gc, cell)
				pt.hold(c, gc+1, cell+4)
			}
		}
		fast++
		if pin {
			st[s] = true
		}
	}
	bx.hits += 3*fast + hits
	if afterReplay != nil {
		afterReplay(c)
	}
	return true
}

// loadLine charges a load of cu's array-local line li, global line gl: a hit,
// reordered by the code that reorders everywhere else, is 1 for the caller to
// count; a miss is 0, with its directory record, counters and latency charged.
func loadLine[T any](cu *Cursor[T], gl, li uint64) uint64 {
	if c := cu.c; c.mruHit(gl) || c.accessSlow(gl) {
		return 1
	}
	cu.lat += cu.a.missAcc(cu.p, uint32(li))
	return 0
}

// afterReplay, when set, sees the cache after every ReplayLines that ran: for
// tests only, like afterMerge (dir_test.go audits the pins).
var afterReplay func(*cache)
