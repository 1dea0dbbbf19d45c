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

import mbits "math/bits"

// cacheWays is the set associativity. The R10000's secondary cache was
// 2-way; we use 4-way LRU so that the simulator's page-aligned allocation
// pattern does not manufacture conflict pathologies the real (physically
// indexed, OS-page-coloured) machine avoided.
const cacheWays = 4

// access and the miss path below are hand-unrolled for exactly four ways;
// this constant expression fails to compile if cacheWays changes.
const _ = uint(cacheWays-4) + uint(4-cacheWays)

// cache is a set-associative, line-tagged cache simulator with LRU
// replacement. It tracks only tags (presence), not data — data correctness
// is handled by the real Go slices. A cache belongs to exactly one
// processor; the coherence merge touches it only while that processor is
// blocked at a barrier.
// A tag is uint32(line)+1 (0 = invalid): global line indices are bounded by
// Space.reserve to fit 32 bits, and halving the tag width halves the host
// cache footprint of the hot tag arrays (64 simulated processors' tags no
// longer thrash the host LLC).
type cache struct {
	// tags holds cacheWays tags per set, LRU-ordered (way 0 = MRU), in one flat
	// array so that a probe is one bounds check and one load. The Space hands
	// it out (allocTags: every cache's tags are consecutive pieces of one
	// allocation, for a large machine a demand-zero mapping, so that an
	// untouched set costs address space only) and takes it back: it is nil
	// once the Space is closed, and every probe of a closed Space panics on it.
	tags      []uint32
	sp        *Space // whose cleanup unmaps tags: holding a cache must hold it
	setMask   uint64
	setBits   uint   // log2(number of sets)
	cohEvicts uint64 // lines invalidated by coherence since last reset

	// gen counts tag mutations (LRU shuffles, installs, invalidations,
	// flushes). No charging code reads it: it is how the replay tests tell the
	// loads that reorder a set from the misses (ref_test.go, bench_test.go).
	gen uint64
}

// newCache returns the geometry of a cache of cacheBytes in lines of
// lineBytes; its tags are the caller's to supply, c.slots() of them, zeroed.
func newCache(cacheBytes, lineBytes int) *cache {
	// The sets are rounded down to a power of two for masking, at least one;
	// setBits is at least 1, so that no shift is by zero.
	bits := mbits.Len(uint(max(cacheBytes/lineBytes/cacheWays, 1))) - 1
	return &cache{setMask: 1<<bits - 1, setBits: uint(max(bits, 1))}
}

// slots is the length of the tag array: cacheWays per set.
func (c *cache) slots() int { return int(c.setMask+1) * cacheWays }

// setBase returns the tag-array offset of line's set in a cache of 1<<setBits
// sets (setMask = sets-1). The index XOR-folds higher address bits into the set
// bits — the deterministic stand-in for the physical page colouring real
// operating systems use, which keeps the simulator's page-aligned,
// power-of-two-strided allocations from aliasing into the same sets. It is the
// one place the hash is written; every probe and every install goes through
// it. The &63 tells the compiler what newCache guarantees (setBits <= 32), so
// the shifts compile to one instruction each. Must stay inlinable.
func setBase(setBits uint, setMask, line uint64) uint64 {
	u := line >> (setBits & 63)
	return ((line ^ u ^ u>>(setBits&63)) & setMask) * cacheWays
}

// mruAt reports whether line occupies the MRU way of its set — the whole probe
// of the hot paths: one bounds check and one load. It takes the cache's tags
// and geometry apart so that a loop hot enough for it to show (ChargeLoop, a
// Cursor) can hold the two scalars where it runs instead of reloading them
// through c on every probe. Must stay inlinable.
func mruAt(tags []uint32, setBits uint, setMask, line uint64) bool {
	return tags[setBase(setBits, setMask, line)] == uint32(line)+1
}

// mruHit is mruAt on c's own fields.
func (c *cache) mruHit(line uint64) bool {
	return mruAt(c.tags, c.setBits, c.setMask, line)
}

// access looks line up and installs it as MRU; reports whether it was a hit.
func (c *cache) access(line uint64) bool {
	return c.mruHit(line) || c.accessSlow(line)
}

// accessSlow handles the non-MRU ways and the miss path. The ways are
// unrolled: a hit shifts at most three tags with register moves, where the
// generic copy() in a loop paid a runtime call per probe.
func (c *cache) accessSlow(line uint64) bool {
	c.gen++ // every path below reorders or installs tags
	set := c.set(line)
	t := uint32(line) + 1
	hit := true
	switch t {
	case set[1]:
	case set[2]:
		set[2] = set[1]
	case set[3]:
		set[3] = set[2]
		set[2] = set[1]
	default: // miss: evict LRU (last way)
		hit = false
		set[3] = set[2]
		set[2] = set[1]
	}
	set[1] = set[0]
	set[0] = t
	return hit
}

// set returns the cacheWays-long tag slice of line's set.
func (c *cache) set(line uint64) []uint32 {
	base := setBase(c.setBits, c.setMask, line)
	return c.tags[base : base+cacheWays : base+cacheWays]
}

// invalidate drops line if present, counting a coherence eviction; it
// reports whether the line was actually evicted.
func (c *cache) invalidate(line uint64) bool {
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
