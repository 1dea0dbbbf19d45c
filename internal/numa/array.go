package numa

import (
	"fmt"
	mbits "math/bits"

	"o2k/internal/sim"
)

// Array is a typed, placement-aware memory region. Elements live in an
// ordinary Go slice (Data), so applications compute real results; Load,
// Store, and Touch* additionally charge virtual time to the accessing
// processor according to the cache simulator and the touched page's home.
//
// Two kinds exist:
//
//   - Private arrays (NewPrivate) model per-process memory in the MP and
//     SHMEM programs: all pages are homed on the owner and no coherence
//     tracking is done. Only the owner should access them (puts/gets in the
//     SHMEM runtime are the costed exception).
//
//   - Shared arrays (NewShared) model CC-SAS data: pages may be placed
//     anywhere, and writes are recorded per processor so the next coherence
//     merge (Space.MergeEpoch, invoked by the sas barrier) invalidates the
//     written lines in every other cache.
//
// Data-race discipline follows the source programming models: between two
// synchronization points, an element of a shared array may be written by at
// most one processor (and then must not be read by others). The runtimes'
// tests enforce this for the applications in this repository.
type Array[T any] struct {
	sp       *Space
	data     []T
	chunk    *hostChunk // the mapping data lies in; nil when data is a heap slice
	elemSize uint64
	base     uint64 // byte address of element 0 (page aligned)
	baseLine uint64
	pageHome []int32 // home processor per page
	shared   bool

	// Hot-path caches, filled once in newArray (DESIGN.md §5.2). charge runs
	// for every simulated access — millions per experiment — so the shifts
	// replace the lineOf/pageOf divisions (LineBytes and PageBytes are
	// validated powers of two) and the machine tables replace the per-miss
	// Hops/MemAccess calls. All of them are derived, never authoritative:
	// the reference path in ref.go recomputes everything from Cfg.
	caches       []*cache
	lineShift    uint // log2(LineBytes)
	pageShift    uint // log2(PageBytes)
	pageOverLine uint // pageShift - lineShift: line index -> page index
	cacheHitNS   sim.Time
	procNode     []int32    // machine.ProcNode table
	nodeLat      []sim.Time // machine.NodeLat table, row-major by source node
	nodes        int

	// Epoch write-sets (shared arrays only).
	writeLines [][]uint32 // per proc: line indices written this epoch
	writeBits  [][]uint64 // per proc: dedup bitmap over line indices

	// Sharer directory (shared arrays only; DESIGN.md §5.2): per line, the
	// 1-based index of the first record of its sharer list in the space's arena
	// (0 = no sharer; allocated by the first miss). Every miss that installs a
	// line of this array in a cache links that cache's record (miss).
	// Address ranges are never reused (Space.reserve), so a line of this array
	// can only enter a cache through this array's accessors: the lists name a
	// superset of the caches that hold each line, and the merge probes only
	// those.
	dirHead []int32
}

// NewPrivate allocates n elements of private memory homed on owner.
func NewPrivate[T any](sp *Space, owner, n int) *Array[T] {
	a := newArray[T](sp, n)
	a.PlaceUniform(owner)
	return a
}

// NewShared allocates n elements of shared memory with coherence tracking.
// Pages default to home processor 0; call a Place* method to distribute.
func NewShared[T any](sp *Space, n int) *Array[T] {
	a := newArray[T](sp, n)
	a.shared = true
	p := sp.M.Procs()
	a.writeLines = make([][]uint32, p)
	a.writeBits = make([][]uint64, p)
	sp.registerShared(a)
	return a
}

func newArray[T any](sp *Space, n int) *Array[T] {
	if n < 0 {
		panic("numa: negative array length")
	}
	if sp.closed() {
		panic("numa: use of closed Space")
	}
	es := elemBytes[T]()
	bytes := es * uint64(n)
	base := sp.reserve(int(bytes))
	pb := uint64(sp.M.Cfg.PageBytes)
	pages := (bytes + pb - 1) / pb
	if pages == 0 {
		pages = 1
	}
	lineShift := uint(mbits.TrailingZeros64(uint64(sp.M.Cfg.LineBytes)))
	pageShift := uint(mbits.TrailingZeros64(pb))
	a := &Array[T]{
		sp:           sp,
		elemSize:     es,
		base:         base,
		baseLine:     base >> lineShift,
		pageHome:     make([]int32, pages),
		caches:       sp.caches,
		lineShift:    lineShift,
		pageShift:    pageShift,
		pageOverLine: pageShift - lineShift,
		cacheHitNS:   sp.M.Cfg.CacheHitNS,
		procNode:     sp.M.ProcNode(),
		nodeLat:      sp.M.NodeLat(),
		nodes:        sp.M.Nodes(),
	}
	a.data = allocData(a, n)
	sp.addAlloc(int(bytes))
	return a
}

// Release gives a's host backing store back — mapped pages are unmapped with
// the last array of their chunk, a heap slice is left to the collector — and
// detaches the array: any later access that moves an element, through it or
// through a Cursor bound to it before, panics on the nil data slice (the
// charge-only Touch forms move none and are not caught), and a slice obtained
// from Data must not be used afterwards. Only call it when no simulated code
// can touch the array again (the arrays of a finished adaptation cycle, once
// the next cycle's remap has read them). Shared arrays are also dropped from
// the coherence-merge roster and lose their sharer directory; their
// write-sets must be empty, i.e. a merge has run since the last write.
// AllocBytes is NOT decremented: the simulated program never freed anything,
// so the model cannot observe a Release. Releasing twice is a no-op.
func Release[T any](a *Array[T]) {
	if a == nil || a.data == nil {
		return
	}
	if a.shared {
		for _, wl := range a.writeLines {
			if len(wl) != 0 {
				panic("numa: Release of shared array with unmerged writes")
			}
		}
		a.sp.unregisterShared(a)
		for _, head := range a.dirHead {
			a.sp.freeSharers(head)
		}
		a.dirHead = nil
	}
	if a.chunk != nil {
		a.sp.maps.release(a.chunk)
	}
	a.data = nil
}

// Data exposes the backing slice for bulk computation. Accesses through Data
// are not costed; pair them with TouchRange or ChargeLoop, or prefer
// Load/Store.
func (a *Array[T]) Data() []T { return a.data }

// --- Placement -------------------------------------------------------------

// PlaceUniform homes every page on processor owner.
func (a *Array[T]) PlaceUniform(owner int) {
	a.checkProc(owner)
	for i := range a.pageHome {
		a.pageHome[i] = int32(owner)
	}
}

// PlaceBlock homes pages in contiguous blocks: processor k gets the pages
// covering elements [k*n/P, (k+1)*n/P).
func (a *Array[T]) PlaceBlock() {
	a.PlaceByElem(func(i int) int {
		return i * a.sp.M.Procs() / max(len(a.data), 1)
	})
}

// PlaceByElem homes each page on ownerOf(first element in the page). This is
// the deterministic stand-in for first-touch placement: pass the same owner
// function the application uses to initialize the array. It returns how many
// pages changed home — the input to a page-migration cost model — and must
// only be called while no processor is accessing the array (between SPMD
// regions or at a rendezvous).
func (a *Array[T]) PlaceByElem(ownerOf func(elem int) int) (moved int) {
	pb := uint64(a.sp.M.Cfg.PageBytes)
	for pg := range a.pageHome {
		o := ownerOf(max(min(int(uint64(pg)*pb/a.elemSize), len(a.data)-1), 0))
		a.checkProc(o)
		if a.pageHome[pg] != int32(o) {
			a.pageHome[pg] = int32(o)
			moved++
		}
	}
	return moved
}

// Home returns the home processor of the page containing element i.
func (a *Array[T]) Home(i int) int {
	return int(a.pageHome[a.pageOf(i)])
}

func (a *Array[T]) checkProc(p int) {
	if p < 0 || p >= a.sp.M.Procs() {
		panic(fmt.Sprintf("numa: processor %d out of range [0,%d)", p, a.sp.M.Procs()))
	}
}

func (a *Array[T]) pageOf(i int) int {
	return int(uint64(i) * a.elemSize >> a.pageShift)
}

// lineOf is the array-local line index of element i (&63: lineShift is the
// log2 of a validated line size, and saying so spares the shift its range
// check on every access).
func (a *Array[T]) lineOf(i int) uint32 {
	return uint32(uint64(i) * a.elemSize >> (a.lineShift & 63))
}

// --- Costed access ---------------------------------------------------------

// refProbe is the cache every entry point probes under the reference model:
// one empty set, so the inlined MRU probe always fails and the access reaches
// chargeSlowAcc, which charges it through chargeRef and the processor's real
// cache. No loop needs a reference twin.
var refProbe = &cache{tags: make([]uint32, cacheWays), setBits: 1}

// probe is the cache processor me's accesses to a probe inline: its own, or
// refProbe under the reference model.
func (a *Array[T]) probe(me int) *cache {
	if refModel {
		return refProbe
	}
	return a.caches[me]
}

// miss is the one place a line enters a cache: it links processor me onto the
// sharer list of array-local line li (shared arrays only — the merge is the
// directory's sole consumer; one scheduler thread runs every processor of the
// space, so the miss writes the shared arena itself) and prices the fill from
// the line's home memory, reporting whether that is me's own node.
func (a *Array[T]) miss(me int, li uint32) (lat sim.Time, local bool) {
	if a.shared {
		if a.dirHead == nil {
			a.dirHead = make([]int32, a.lines())
		}
		a.sp.addSharer(&a.dirHead[li], int32(me))
	}
	sn := a.procNode[me]
	hn := a.procNode[a.pageHome[li>>a.pageOverLine]]
	return a.nodeLat[int(sn)*a.nodes+int(hn)], sn == hn
}

// recordWrite adds li to processor me's epoch write-set (once per line).
func (a *Array[T]) recordWrite(me int, li uint32) {
	bits := a.writeBits[me]
	if bits == nil {
		bits = make([]uint64, (a.lines()+63)/64)
		a.writeBits[me] = bits
	}
	w, b := li>>6, uint64(1)<<(li&63)
	if bits[w]&b == 0 {
		bits[w] |= b
		a.writeLines[me] = append(a.writeLines[me], li)
	}
}

// recordWriteRange is recordWrite for the contiguous lines [l0, l1],
// word-at-a-time over the dedup bitmap. Newly written lines are appended in
// ascending order — the same order the per-line path produces.
func (a *Array[T]) recordWriteRange(me int, l0, l1 uint32) {
	bits := a.writeBits[me]
	if bits == nil {
		bits = make([]uint64, (a.lines()+63)/64)
		a.writeBits[me] = bits
	}
	wl := a.writeLines[me]
	w0, w1 := l0>>6, l1>>6
	for w := w0; w <= w1; w++ {
		mask := ^uint64(0)
		if w == w0 {
			mask &= ^uint64(0) << (l0 & 63)
		}
		if w == w1 {
			mask &= ^uint64(0) >> (63 - l1&63)
		}
		newly := mask &^ bits[w]
		bits[w] |= mask
		for newly != 0 {
			wl = append(wl, w<<6|uint32(mbits.TrailingZeros64(newly)))
			newly &= newly - 1
		}
	}
	a.writeLines[me] = wl
}

func (a *Array[T]) lines() int {
	return int((a.elemSize*uint64(len(a.data)) + uint64(a.sp.M.Cfg.LineBytes) - 1) / uint64(a.sp.M.Cfg.LineBytes))
}

// Load returns element i, charging the access to p. The MRU probe of charge
// is repeated here (not called) so the hot hit case costs no function call.
func (a *Array[T]) Load(p *sim.Proc, i int) T {
	li := a.lineOf(i)
	c := a.probe(p.ID())
	gl := a.baseLine + uint64(li)
	if !c.mruHit(gl) {
		p.Advance(a.chargeSlowAcc(p, c, gl, li, false))
	} else {
		p.CacheHits++
		p.Advance(a.cacheHitNS)
	}
	return a.data[i]
}

// Store writes element i, charging the access to p; probe as in Load
// (shared-array stores always drop to chargeSlowAcc for the write record).
func (a *Array[T]) Store(p *sim.Proc, i int, v T) {
	li := a.lineOf(i)
	c := a.probe(p.ID())
	gl := a.baseLine + uint64(li)
	if a.shared || !c.mruHit(gl) {
		p.Advance(a.chargeSlowAcc(p, c, gl, li, true))
	} else {
		p.CacheHits++
		p.Advance(a.cacheHitNS)
	}
	a.data[i] = v
}

// TouchRange charges a streaming access of elements [lo, hi) — one cache
// event per distinct line — without moving data.
func (a *Array[T]) TouchRange(p *sim.Proc, lo, hi int, write bool) {
	a.span(p, lo, hi, write, false)
}

// span charges the accesses of elements [lo, hi): one per line (TouchRange)
// or, with perElem, one per element (StoreRange). It probes each line once: a
// probe leaves its line in the MRU way, so the line's further accesses are
// hits with no LRU movement, and counting them arithmetically is exact. Within
// one phase, a single Advance and a word-at-a-time write-set record give the
// result of charging access by access (ref_test.go checks both forms).
func (a *Array[T]) span(p *sim.Proc, lo, hi int, write, perElem bool) {
	if lo >= hi {
		return
	}
	me := p.ID()
	if perElem && a.elemSize > uint64(a.sp.M.Cfg.LineBytes) {
		// Oversized elements: per-element charging touches only each element's
		// first line, so the line walk below would probe lines the element loop
		// never does. Charge element-at-a-time instead.
		c := a.probe(me)
		var lat sim.Time
		for i := lo; i < hi; i++ {
			a.chargeAcc(p, c, a.lineOf(i), write, &lat)
		}
		p.Advance(lat)
		return
	}
	// With perElem, every line of [l0, l1] holds the first byte of an element.
	l0, l1 := a.lineOf(lo), a.lineOf(hi-1)
	if refModel {
		// The walk installs lines through accessSlow itself, past any probe.
		if perElem {
			for i := lo; i < hi; i++ {
				a.chargeRef(p, a.lineOf(i), write)
			}
		} else {
			for li := l0; li <= l1; li++ {
				a.chargeRef(p, li, write)
			}
		}
		return
	}
	c := a.caches[me]
	var lat sim.Time
	var misses, local uint64
	for li := l0; li <= l1; li++ {
		if gl := a.baseLine + uint64(li); c.mruHit(gl) || c.accessSlow(gl) {
			continue
		}
		d, near := a.miss(me, li)
		lat += d
		misses++
		if near {
			local++
		}
	}
	n := uint64(l1-l0) + 1
	if perElem {
		n = uint64(hi - lo)
	}
	hits := n - misses
	p.CacheHits += hits
	p.LocalMisses += local
	p.RemoteMisses += misses - local
	p.Advance(lat + sim.Time(hits)*a.cacheHitNS)
	if write && a.shared {
		a.recordWriteRange(me, l0, l1)
	}
}

// LineRange returns the global line-address range [lo, hi) covering elements
// [e0, e1); hi == lo when the element range is empty.
func (a *Array[T]) LineRange(e0, e1 int) (lo, hi uint64) {
	if e0 >= e1 {
		return 0, 0
	}
	lo = a.baseLine + uint64(a.lineOf(e0))
	hi = a.baseLine + uint64(a.lineOf(e1-1)) + 1
	return lo, hi
}

// --- Coherence merge (epochTracker) -----------------------------------------

// mergeEpoch applies the epoch's write-sets: every line written by some
// processor is invalidated in every other processor's cache.
//
// It walks each written line's sharer list: every recorded cache but the
// writer's is probed and its record unlinked, evicted or not — a record whose
// line LRU had already dropped is a stale superset entry, and a cache that
// installs the line again links a new one. Invalidation outcomes are
// order-independent — invalidate(L) in cache q depends only on whether q still
// holds L, and a cache the directory does not name holds no copy — so the
// result is the cache state and evict counts of the reference path's probe of
// every cache (ref.go).
func (a *Array[T]) mergeEpoch(caches []*cache, evicts []uint64) {
	if refModel {
		a.mergeEpochRef(caches, evicts)
		return
	}
	sp := a.sp
	for w, lines := range a.writeLines {
		if len(lines) == 0 {
			continue
		}
		bits := a.writeBits[w]
		for _, li := range lines {
			bits[li>>6] &^= uint64(1) << (li & 63)
			gl := a.baseLine + uint64(li)
			// The writer installed li at some point, which made dirHead.
			link := &a.dirHead[li]
			for r := *link; r != 0; r = *link {
				rec := &sp.dir[r]
				q := rec.proc
				if int(q) == w {
					link = &rec.next
					continue
				}
				if caches[q].invalidate(gl) {
					evicts[q]++
				}
				*link = rec.next
				rec.next, sp.dirFree = sp.dirFree, r
			}
		}
		a.writeLines[w] = lines[:0]
	}
}
