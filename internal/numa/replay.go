package numa

import (
	"math/bits"
	"slices"
	"sync"
	"unsafe"

	"o2k/internal/sim"
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
// whatever arrays it is charged against: its lines, as keys line<<2|array
// (0–3: bx, by, bm, cells) in the order of their first loads and of their
// last, and its number of loads.
type LoadFootprint struct {
	lineBytes   int
	first, last []uint32
	loads       uint64
	src         [][]uint16 // the stream itself, kept only for loadsAudit
}

// footprintScratch is NewLoadFootprint's scratch, indexed by symbol and by
// line key, all zero between two builds.
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
	if loadsAudit != nil {
		fp.src = segs
	}
	sc := footprintScratches.Get().(*footprintScratch)
	for _, seg := range segs {
		for _, s := range seg {
			if sc.count[s]++; sc.count[s] > 1 {
				continue
			}
			keys, n := symLines(s)
			for _, k := range keys[:n] {
				if sc.seen[k] == 0 {
					sc.seen[k] = 1
					fp.first = append(fp.first, k)
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
			fp.loads += uint64(c) * (3 - uint64(s&3)/3) // an own symbol loads two words
			keys, n := symLines(s)
			for t := n - 1; t >= 0; t-- {
				if k := keys[t]; sc.seen[k] != 0 {
					sc.seen[k] = 0
					fp.last = append(fp.last, k)
				}
			}
		}
	}
	slices.Reverse(fp.last)
	footprintScratches.Put(sc)
	return fp
}

// symLines returns the lines symbol s loads, as keys in the order it loads
// them.
func symLines(s uint16) ([3]uint32, int) {
	k := uint32(s) &^ 3 // line lo of array 0
	switch s & 3 {
	case symLeaf:
		return [3]uint32{k, k | 1, k | 2}, 3
	case symCell:
		return [3]uint32{k | 3}, 1
	case symStraddle:
		return [3]uint32{k | 3, (k + 4) | 3}, 2
	}
	return [3]uint32{k, k | 1}, 2
}

// ChargeLoads charges the loads of fp's stream through bx, by, bm and cells
// exactly as charging them one by one would (touchEntry): same tags, directory
// records, counters and flushed totals. It reports false, having charged
// nothing, on another line size than fp's, under the reference model (refProbe
// has one set), for cursors on two caches or two on one array, and when a
// cache set receives more than cacheWays of fp's lines.
//
// Inside the call only its loads write tags, each in its own set (invalidations
// wait for the epoch merge), and a hit costs cacheHitNS in any way; so each set
// evolves on its own. In a set that receives at most cacheWays lines, the lines
// touched so far sit above its other residents in recency order, none evicted
// before its last load. So a line's first load finds the set as the chain
// does and is charged as the chain charges it (loadKey), every other load is
// a hit, and the touched lines end on top in the order of their last loads.
func ChargeLoads[T any](fp *LoadFootprint, bx, by, bm, cells *Cursor[T]) bool {
	cus := [4]*Cursor[T]{bx, by, bm, cells}
	c := bx.c
	var base [4]uint64
	for k, cu := range cus {
		if cu.c != c || slices.Contains(base[:k], cu.baseLine) {
			return false
		}
		base[k] = cu.baseLine
	}
	if fp.lineBytes != 1<<bx.lineShift || c.setMask == 0 {
		return false
	}
	sp := bx.a.sp
	if sets := int(c.setMask + 1); len(sp.fpSets) < sets {
		sp.fpSets = make([]uint64, sets)
	}
	sp.fpEpoch++
	fullest := uint64(0)
	for _, k := range fp.first {
		fullest = max(fullest, sp.occupy(setBase(c.setBits, c.setMask, base[k&3]+uint64(k>>2))/cacheWays, sp.fpEpoch))
	}
	took := fullest <= cacheWays
	if loadsTally != nil {
		loadsTally(took, int(fullest))
	}
	if !took {
		return false
	}
	if loadsAudit != nil && fp.src != nil {
		pre := [4]Cursor[T]{*bx, *by, *bm, *cells}
		chained := [4]*Cursor[T]{&pre[0], &pre[1], &pre[2], &pre[3]}
		loadsAudit(fp, c, bx.p, func() (uint64, sim.Time) {
			chargeFootprintLoads(fp, cus)
			return cursorSums(cus)
		}, func(keys []uint32) (uint64, sim.Time) {
			for _, k := range keys {
				loadKey(chained, k)
			}
			return cursorSums(chained)
		})
		return true
	}
	chargeFootprintLoads(fp, cus)
	return true
}

// chargeFootprintLoads charges fp through cursors ChargeLoads has admitted.
func chargeFootprintLoads[T any](fp *LoadFootprint, cus [4]*Cursor[T]) {
	for _, k := range fp.first {
		loadKey(cus, k)
	}
	cus[0].hits += fp.loads - uint64(len(fp.first))
	c := cus[0].c
	for _, k := range fp.last {
		if gl := cus[k&3].baseLine + uint64(k>>2); !c.mruHit(gl) {
			c.accessSlow(gl)
		}
	}
}

// loadKey charges one load of line key through its cursor, as a cursor's
// probe does: an MRU hit counted, anything else the slow path.
func loadKey[T any](cus [4]*Cursor[T], key uint32) {
	cu := cus[key&3]
	if gl := cu.baseLine + uint64(key>>2); mruAt(cu.c.tags, cu.setBits, cu.setMask, gl) {
		cu.hits++
	} else {
		cu.lat += cu.a.chargeSlowAcc(cu.p, cu.c, gl, key>>2, false)
	}
}

// cursorSums is the hits and latency the cursors hold, not yet flushed.
func cursorSums[T any](cus [4]*Cursor[T]) (hits uint64, lat sim.Time) {
	for _, cu := range cus {
		hits, lat = hits+cu.hits, lat+cu.lat
	}
	return hits, lat
}

// loadsTally, when set, sees every ChargeLoads call past the geometry checks:
// whether the rule took it and the most lines it found in one set (up to 7).
// loadsAudit, when set, gets every charge the rule takes of a footprint built
// while it was set, as two functions that return the cursors' unflushed sums:
// the charge, and the chain of keys, one load each through copies of the
// cursors as the charge found them (dir_test.go). For tests only.
var (
	loadsTally func(took bool, fullest int)
	loadsAudit func(fp *LoadFootprint, c *cache, p *sim.Proc, charge func() (uint64, sim.Time), chain func(keys []uint32) (uint64, sim.Time))
)
