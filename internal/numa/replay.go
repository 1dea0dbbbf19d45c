package numa

import (
	"math/bits"
	"slices"
	"sync"
	"unsafe"
)

// A tree-walk load trace comes in two forms, both defined here and nowhere
// else. Entries ([]int32) name elements: e >= 0 loads element e of bx, by, bm
// (in that order); e < 0 loads elements 3c, 3c+1, 3c+2 of cells for c = ^e.
// Line symbols ([]uint16, CompileLoads) name lines, lo<<2|kind: a leaf loads
// line lo of each of bx, by, bm; a cell triple sits on line lo of cells; a
// straddling one spans lo and lo+1 (its middle word is an MRU hit wherever it
// falls); a body's own position loads line lo of bx, then of by.
const (
	symLeaf = iota
	symCell
	symStraddle
	symOwn

	maxSymLine = 1<<14 - 1 // line offsets a symbol can name: sym+1 fits a uint16
)

// CompileLoads appends to dst the line symbols of a body's force loads, for
// elements of type T in lines of lineBytes: the body's own position (none when
// body < 0), then the entries of trace. It reports false, and appends nothing,
// when a load has no symbol (a cell triple wider than two lines, a line offset
// past the symbol range): replay the entries themselves (ReplayLoads).
func CompileLoads[T any](dst []uint16, lineBytes, body int, trace []int32) ([]uint16, bool) {
	es, shift := elemBytes[T](), uint(bits.TrailingZeros(uint(lineBytes)))&63
	n := len(dst)
	if lo := uint64(body) * es >> shift; body >= 0 {
		if lo >= maxSymLine {
			return dst, false
		}
		dst = append(dst, uint16(lo<<2|symOwn))
	}
	dst = slices.Grow(dst, len(trace))
	out := dst[len(dst) : len(dst)+len(trace)]
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
			return dst[:n], false
		}
		out[i] = uint16(lo<<2 | kind)
	}
	return dst[:len(dst)+len(trace)], true
}

// elemBytes is the simulated size of a T (a zero-size type occupies a byte).
func elemBytes[T any]() uint64 {
	var z T
	return max(uint64(unsafe.Sizeof(z)), 1)
}

// ReplayLoads charges the loads of a tree-walk trace, given as entries,
// through four cursors exactly as the per-access chain (touchEntry) does: by
// the trace's load footprint where ChargeLoads takes it, else by the chain.
func ReplayLoads[T any](trace []int32, bx, by, bm, cells *Cursor[T]) {
	lineBytes := 1 << bx.lineShift
	if syms, ok := CompileLoads[T](nil, lineBytes, -1, trace); ok && ChargeLoads(NewLoadFootprint(lineBytes, syms), bx, by, bm, cells) {
		return
	}
	for _, e := range trace {
		touchEntry(e, bx, by, bm, cells)
	}
}

// touchEntry charges one trace entry load by load, each through its own
// cursor: the per-access chain the replay is defined by.
func touchEntry[T any](e int32, bx, by, bm, cells *Cursor[T]) {
	i, d := int(e), 0 // a leaf: element i of each array
	if e < 0 {
		bx, by, bm, i, d = cells, cells, cells, int(^e)*3, 1 // a cell: three words
	}
	bx.Load(i)
	by.Load(i + d)
	bm.Load(i + 2*d)
}

// LoadFootprint is what charging a stream of line symbols needs of it,
// whatever arrays it is charged against: its lines, as events naming line li
// of array k (0–3: bx, by, bm, cells), in the order of their first loads and of
// their last, and its number of loads per array.
type LoadFootprint struct {
	lineBytes   int
	first, last []fpEvent
	loads       [4]uint64
	src         [][]uint16 // the stream itself, kept only for chargeAudit
}

// footprintScratch is NewLoadFootprint's scratch, indexed by symbol and by
// line key line<<2|array, all zero between two builds.
type footprintScratch struct {
	count [1 << 16]uint32  // per symbol: how often the stream names it
	seen  [1<<16 + 8]uint8 // per line key: met going forward, not yet going back
}

var footprintScratches = sync.Pool{New: func() any { return new(footprintScratch) }}

// NewLoadFootprint records the symbol stream segs, one segment after another,
// compiled by CompileLoads for lines of lineBytes. A pass forward counts each
// symbol and looks at its lines the first time only; a pass back finds the
// last loads as the first loads of the reversed stream, reversed.
func NewLoadFootprint(lineBytes int, segs ...[]uint16) *LoadFootprint {
	fp := &LoadFootprint{lineBytes: lineBytes}
	if chargeAudit != nil {
		fp.src = segs
	}
	sc := footprintScratches.Get().(*footprintScratch)
	for _, seg := range segs {
		for _, s := range seg {
			if sc.count[s]++; sc.count[s] > 1 {
				continue
			}
			keys, n := symLoads(s)
			for _, k := range keys[:n] {
				if sc.seen[k] == 0 {
					sc.seen[k] = 1
					fp.first = append(fp.first, fpEvent{li: k >> 2, k: uint8(k & 3)})
				}
			}
		}
	}
	for i := len(segs) - 1; i >= 0; i-- {
		seg := segs[i]
		for j := len(seg) - 1; j >= 0; j-- {
			s := seg[j]
			c := sc.count[s]
			if c == 0 {
				continue
			}
			sc.count[s] = 0
			keys, n := symLoads(s)
			for t := n - 1; t >= 0; t-- {
				k := keys[t]
				fp.loads[k&3] += uint64(c)
				if sc.seen[k] != 0 {
					sc.seen[k] = 0
					fp.last = append(fp.last, fpEvent{li: k >> 2, k: uint8(k & 3)})
				}
			}
		}
	}
	slices.Reverse(fp.last)
	footprintScratches.Put(sc)
	return fp
}

// symLoads returns the loads of symbol s, as line keys line<<2|array in the
// order the per-access chain makes them. (A straddling triple's middle word
// hits its line wherever it falls: it is counted on the second line.)
func symLoads(s uint16) ([3]uint32, int) {
	k := uint32(s) &^ 3 // line lo of array 0
	switch s & 3 {
	case symLeaf:
		return [3]uint32{k, k | 1, k | 2}, 3
	case symCell:
		return [3]uint32{k | 3, k | 3, k | 3}, 3
	case symStraddle:
		return [3]uint32{k | 3, (k + 4) | 3, (k + 4) | 3}, 3
	}
	return [3]uint32{k, k | 1}, 2
}

// ChargeLoads charges the loads of fp's stream through bx, by, bm and cells
// exactly as charging them one by one would (touchEntry): same tags, directory
// records, counters and flushed totals. It reports false, having charged
// nothing, on another line size than fp's, under the reference model (refProbe
// has one set), for cursors on two caches or two on one array, and when a
// cache set receives more than cacheWays of fp's lines. It is ChargeLoop's
// footprint rule (chargeFootprint) over load streams, one per array, whose
// footprint is fp's: each line's first load, then the lines by last load.
func ChargeLoads[T any](fp *LoadFootprint, bx, by, bm, cells *Cursor[T]) bool {
	streams := [4]Stream[T]{{C: bx}, {C: by}, {C: bm}, {C: cells}}
	c := bx.c
	var bases [4]uint64
	for k, s := range streams {
		if s.C.c != c || slices.Contains(bases[:k], s.C.baseLine) {
			return false
		}
		bases[k] = s.C.baseLine
	}
	if fp.lineBytes != 1<<bx.lineShift || c.setMask == 0 {
		return false
	}
	occ := bx.a.sp.occupancy(c, bases[:], fp.first)
	if footprintTally != nil {
		footprintTally(fpKey{}, false, occ)
	}
	charge := func(ss []Stream[T]) {
		for k, s := range ss {
			s.C.hits += fp.loads[k]
		}
		chargeFootprint(ss, fp.first, fp.last)
	}
	switch {
	case !occ.took:
		return false
	case chargeAudit != nil && fp.src != nil:
		auditCharge(streams[:], charge, func(ss []Stream[T]) {
			es := elemBytes[T]()
			for _, seg := range fp.src {
				for _, s := range seg {
					keys, n := symLoads(s)
					for _, k := range keys[:n] {
						// The first element that starts in the line.
						ss[k&3].C.Load(int((uint64(k>>2)<<bx.lineShift + es - 1) / es))
					}
				}
			}
		})
	default:
		charge(streams[:])
	}
	return true
}
