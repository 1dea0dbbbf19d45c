// Package numa models the Origin2000 memory system: physically distributed
// memory with page-granularity placement, per-processor caches, and a
// deterministic release-consistency coherence model.
//
// Data lives in ordinary Go slices (so applications compute real results);
// the package's job is to charge virtual time for every access according to
// where the touched page is homed and whether the line is cached. Coherence
// is resolved at synchronization points: each shared array records the cache
// lines written per processor during an epoch, and at a barrier (or lock
// hand-off) those write-sets invalidate the line in every other processor's
// cache. Because invalidations happen only at synchronization-ordered points,
// the cost model is deterministic — identical on every run — while still
// capturing the communication-to-computation behaviour that drives CC-SAS
// performance: placement locality, cache reuse, and coherence misses on
// actively shared data.
package numa

// cacheWays is the set associativity. The R10000's secondary cache was
// 2-way; we use 4-way LRU so that the simulator's page-aligned allocation
// pattern does not manufacture conflict pathologies the real (physically
// indexed, OS-page-coloured) machine avoided.
const cacheWays = 4

// access and the miss path below are hand-unrolled for exactly four ways;
// this constant expression fails to compile if cacheWays changes.
const _ = uint(cacheWays-4) + uint(4-cacheWays)

// Tag storage is chunked and lazily materialized so the footprint stops
// scaling as procs × cache size: every untouched chunk of every cache
// aliases the one shared all-invalid chunk below, and a private (writable)
// copy is made only when a line is first installed in that chunk. At 1024
// simulated processors a 4 MiB cache would otherwise pin 128 KiB of tags
// per proc — 128 MiB of host memory — while a quick run touches a few
// chunks per proc. chunkSlots is a multiple of cacheWays, so a set never
// straddles two chunks.
const (
	chunkSlotsLog = 10
	chunkSlots    = 1 << chunkSlotsLog // 4 KiB of tags per chunk
)

// zeroChunk is the shared all-invalid chunk (tag 0 = invalid; real tags are
// uint32(line)+1 >= 1, so aliasing it is always sound). Read-only.
var zeroChunk [chunkSlots]uint32

// cache is a set-associative, line-tagged cache simulator with LRU
// replacement. It tracks only tags (presence), not data — data correctness
// is handled by the real Go slices. A cache is owned by exactly one
// processor; the coherence merge touches it only while that processor is
// blocked at a barrier.
// A tag is uint32(line)+1 (0 = invalid): global line indices are bounded by
// Space.reserve to fit 32 bits, and halving the tag width halves the host
// cache footprint of the hot tag arrays (64 simulated processors' tags no
// longer thrash the host LLC).
type cache struct {
	chunks    [][]uint32 // cacheWays tags per set, LRU-ordered (way 0 = MRU)
	owned     []bool     // chunks[i] is a private copy, not the zero chunk
	setMask   uint64
	setBits   uint // log2(number of sets)
	lineShift uint
	cohEvicts uint64 // lines invalidated by coherence since last reset

	// gen counts tag mutations (LRU shuffles, installs, invalidations,
	// flushes). Arrays record {line, gen} after each completed access; while
	// gen is unchanged, no tag has moved, so that line provably still occupies
	// the MRU way of its set and a repeat access may be charged as a hit
	// without re-probing (and without the LRU reorder a real probe would do,
	// because an MRU hit performs none). See Array.last.
	gen uint64
}

func newCache(cacheBytes, lineBytes int) *cache {
	sets := cacheBytes / lineBytes / cacheWays
	if sets < 1 {
		sets = 1
	}
	// Round down to a power of two for masking.
	for sets&(sets-1) != 0 {
		sets &= sets - 1
	}
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	bits := uint(0)
	for 1<<bits < sets {
		bits++
	}
	if bits == 0 {
		bits = 1 // avoid zero shifts when there is a single set
	}
	n := sets * cacheWays
	c := &cache{
		chunks:    make([][]uint32, (n+chunkSlots-1)/chunkSlots),
		setMask:   uint64(sets - 1),
		setBits:   bits,
		lineShift: shift,
	}
	c.owned = make([]bool, len(c.chunks))
	for i := range c.chunks {
		lo := i * chunkSlots
		hi := lo + chunkSlots
		if hi > n {
			hi = n
		}
		c.chunks[i] = zeroChunk[:hi-lo]
	}
	return c
}

// setOf maps a line address to its set. The index XOR-folds higher address
// bits into the set bits — the deterministic stand-in for the physical page
// colouring real operating systems use, which keeps the simulator's
// page-aligned, power-of-two-strided allocations from aliasing into the
// same sets.
func (c *cache) setOf(line uint64) uint64 {
	return (line ^ line>>c.setBits ^ line>>(2*c.setBits)) & c.setMask
}

// setBase returns the tag-array offset of line's set; it must stay
// inlinable (the charge hot path uses it to probe the MRU way without a
// function call — repeated accesses to the current line, i.e. every
// streaming loop, resolve with two inlined loads).
func (c *cache) setBase(line uint64) uint64 {
	return ((line ^ line>>c.setBits ^ line>>(2*c.setBits)) & c.setMask) * cacheWays
}

// mruHit reports whether line occupies the MRU way of the set at base.
// The chunk indirection costs one extra load on the hottest path; it is
// what lets untouched chunks stay aliased to the shared zero chunk.
func (c *cache) mruHit(base, line uint64) bool {
	return c.chunks[base>>chunkSlotsLog][base&(chunkSlots-1)] == uint32(line)+1
}

// mruAt is setBase + mruHit over a cache's geometry held in the caller's
// locals (chunks, setBits&63, setMask) — for loops hot enough that reloading
// the three through c on every probe shows (ReplayLoads): whether line
// occupies the MRU way of its set. With setBits < 64, u>>setBits is
// line>>(2*setBits). Must stay inlinable, and in step with setBase.
func mruAt(chunks [][]uint32, setBits uint, setMask, line uint64) bool {
	u := line >> setBits
	base := ((line ^ u ^ u>>setBits) & setMask) * cacheWays
	return chunks[base>>chunkSlotsLog][base&(chunkSlots-1)] == uint32(line)+1
}

// access looks line up and installs it as MRU; reports whether it was a hit.
func (c *cache) access(line uint64) bool {
	base := c.setBase(line)
	return c.mruHit(base, line) || c.accessSlow(base, line)
}

// accessSlow handles the non-MRU ways and the miss path. The ways are
// unrolled: a hit shifts at most three tags with register moves, where the
// generic copy() in a loop paid a runtime call per probe.
func (c *cache) accessSlow(base, line uint64) bool {
	c.gen++ // every path below reorders or installs tags
	ci := base >> chunkSlotsLog
	off := base & (chunkSlots - 1)
	set := c.chunks[ci][off : off+cacheWays : off+cacheWays]
	t := uint32(line) + 1
	// The hit cases below mutate set in place; they are only reachable when
	// the tag is present, which implies the chunk is already materialized.
	switch t {
	case set[1]:
		set[1] = set[0]
		set[0] = t
		return true
	case set[2]:
		set[2] = set[1]
		set[1] = set[0]
		set[0] = t
		return true
	case set[3]:
		set[3] = set[2]
		set[2] = set[1]
		set[1] = set[0]
		set[0] = t
		return true
	}
	// Miss: evict LRU (last way), install as MRU — the only path that writes
	// to a previously untouched chunk, so materialize a private copy first.
	// The aliased zero chunk is all-invalid; there is nothing to copy.
	if !c.owned[ci] {
		priv := make([]uint32, len(c.chunks[ci]))
		c.chunks[ci] = priv
		c.owned[ci] = true
		set = priv[off : off+cacheWays : off+cacheWays]
	}
	set[3] = set[2]
	set[2] = set[1]
	set[1] = set[0]
	set[0] = t
	return false
}

// set returns the cacheWays-long tag slice of line's set (possibly the
// read-only zero chunk; callers that mutate must hold the tag, which
// implies a materialized chunk).
func (c *cache) set(line uint64) []uint32 {
	base := c.setOf(line) * cacheWays
	off := base & (chunkSlots - 1)
	return c.chunks[base>>chunkSlotsLog][off : off+cacheWays : off+cacheWays]
}

// present reports whether line is cached, without touching LRU state.
func (c *cache) present(line uint64) bool {
	set := c.set(line)
	t := uint32(line) + 1
	for w := 0; w < cacheWays; w++ {
		if set[w] == t {
			return true
		}
	}
	return false
}

// invalidate drops line if present, counting a coherence eviction; it
// reports whether the line was actually evicted. An unowned chunk is the
// shared all-invalid zero chunk, so the probe resolves with one bool load —
// the common case when the coherence merge sweeps hundreds of caches.
func (c *cache) invalidate(line uint64) bool {
	if !c.owned[c.setOf(line)*cacheWays>>chunkSlotsLog] {
		return false
	}
	set := c.set(line)
	t := uint32(line) + 1
	for w := 0; w < cacheWays; w++ {
		if set[w] == t {
			// Compact the remaining ways forward.
			copy(set[w:cacheWays-1], set[w+1:cacheWays])
			set[cacheWays-1] = 0
			c.cohEvicts++
			c.gen++
			return true
		}
	}
	return false
}

// flush empties the cache (used between experiment repetitions) by
// re-aliasing every materialized chunk to the shared zero chunk, returning
// the private copies to the allocator.
func (c *cache) flush() {
	c.gen++
	for i, own := range c.owned {
		if own {
			c.chunks[i] = zeroChunk[:len(c.chunks[i])]
			c.owned[i] = false
		}
	}
	c.cohEvicts = 0
}
