package numa

import (
	"fmt"
	"os"
	"slices"
	"sync/atomic"
	"testing"

	"o2k/internal/sim"
)

// TestMain audits the tag store at the end of every MergeEpoch any test of
// this package runs, and the sharer directory with it on the optimized path —
// the spaces applications create internally included (adaptmesh_test.go,
// suite_test.go) — and every load footprint charge against its loads charged
// one by one.
func TestMain(m *testing.M) {
	afterMerge = func(sp *Space) {
		if err := checkTags(sp); err != nil {
			panic(err)
		}
		if refModel {
			return // the reference merge probes every cache and keeps no directory
		}
		if err := checkDirectory(sp); err != nil {
			panic(err)
		}
		directoryAudits.Add(1)
	}
	loadsAudit = auditLoads
	os.Exit(m.Run())
}

// auditLoads is TestMain's audit of every load footprint charge of every test
// of this package: it runs the charge, puts the cache and the processor's
// counters back as they were, charges the footprint's stream load by load
// from there, and panics unless both leave the same tags and, once the
// cursors are flushed, the same counters and clock. (A hit the chain finds
// outside the MRU way reaches the processor through the slow path, one the
// rule counts through a cursor.) The tags are left as the chain leaves them,
// the counters as the rule does.
func auditLoads(fp *LoadFootprint, c *cache, p *sim.Proc, charge func() (uint64, sim.Time), chain func(keys []uint32) (uint64, sim.Time)) {
	flushed := func(hits uint64, lat sim.Time) (sim.Counters, sim.Time) {
		ctr := p.Counters
		ctr.CacheHits += hits
		return ctr, p.Now() + lat + sim.Time(hits)*c.sp.M.Cfg.CacheHitNS
	}
	tags, counters := slices.Clone(c.tags), p.Counters
	ruleCounters, ruleNow := flushed(charge())
	ruleTags, rule := slices.Clone(c.tags), p.Counters
	copy(c.tags, tags)
	p.Counters = counters
	defer func() { p.Counters = rule }() // the counters that go with the charged cursors
	var keys []uint32
	for _, seg := range fp.src {
		for _, s := range seg {
			keys = chainLoads(keys, s)
		}
	}
	chainCounters, chainNow := flushed(chain(keys))
	if !slices.Equal(c.tags, ruleTags) || chainCounters != ruleCounters || chainNow != ruleNow {
		panic(fmt.Sprintf("a load footprint charged counters %+v up to %v; its loads one by one %+v up to %v; same tags: %v",
			ruleCounters, ruleNow, chainCounters, chainNow, slices.Equal(c.tags, ruleTags)))
	}
	loadAudits.Add(1)
}

// chainLoads appends to keys the loads of symbol s, one key line<<2|array per
// load, in the order its entry makes them (the symbol format is replay.go's).
func chainLoads(keys []uint32, s uint16) []uint32 {
	lo := uint32(s >> 2)
	x, y, m, cell, next := lo<<2, lo<<2|1, lo<<2|2, lo<<2|3, (lo+1)<<2|3
	switch s & 3 {
	case symLeaf:
		return append(keys, x, y, m)
	case symCell:
		return append(keys, cell, cell, cell)
	case symStraddle:
		return append(keys, cell, next, next) // the middle word hits its line wherever it falls
	}
	return append(keys, x, y)
}

// loadAudits counts the footprint charges TestMain's hook has audited.
var loadAudits atomic.Int64

// checkTags is the structural audit of the tag store: every cache has
// cacheWays tags per set; in every set the valid tags are a prefix of the ways
// (an install shifts the ways down from the MRU end, invalidate compacts), no
// tag sits in a set twice, and every tag sits in the set its line hashes to —
// the hash spelled out here from its definition, not taken from setBase.
func checkTags(sp *Space) error {
	for q, c := range sp.caches {
		if len(c.tags) != int(c.setMask+1)*cacheWays {
			return fmt.Errorf("cache %d: %d tags for %d sets of %d ways", q, len(c.tags), c.setMask+1, cacheWays)
		}
		for base := 0; base < len(c.tags); base += cacheWays {
			set := c.tags[base : base+cacheWays]
			for w, tag := range set {
				if tag == 0 {
					if slices.Max(set[w:]) != 0 {
						return fmt.Errorf("cache %d set %d: tags %v have a hole", q, base/cacheWays, set)
					}
					break
				}
				line := uint64(tag - 1)
				if home := (line ^ line>>c.setBits ^ line>>(2*c.setBits)) & c.setMask; home != uint64(base/cacheWays) {
					return fmt.Errorf("cache %d set %d: line %d belongs in set %d", q, base/cacheWays, line, home)
				}
				if slices.Contains(set[:w], tag) {
					return fmt.Errorf("cache %d set %d: line %d (tag %d) twice in tags %v", q, base/cacheWays, line, tag, set)
				}
			}
		}
	}
	return nil
}

// unaudited takes the audits off the merges and footprint charges a
// benchmark times.
func unaudited(b *testing.B) {
	merge, loads := afterMerge, loadsAudit
	afterMerge, loadsAudit = nil, nil
	b.Cleanup(func() { afterMerge, loadsAudit = merge, loads })
}

// directoryAudits counts the merges TestMain's hook has audited.
var directoryAudits atomic.Int64

// dirState is what checkDirectory needs of one shared array, whatever its
// element type.
type dirState struct {
	baseLine uint64
	lines    int
	heads    []int32 // nil until the first miss
}

func (a *Array[T]) dirState() dirState {
	return dirState{a.baseLine, a.lines(), a.dirHead}
}

// checkDirectory is the conservation check of the sharer directory: the arena
// is exactly its free list plus the records on the lists (plus the sentinel),
// no list names a processor twice, and every valid tag of a shared array's
// line in cache q is covered by a record q on that line's list — the superset
// invariant the merge rests on.
func checkDirectory(sp *Space) error {
	sp.mu.Lock()
	trackers := slices.Clone(sp.shared)
	sp.mu.Unlock()
	arrays := make([]dirState, len(trackers))
	for i, t := range trackers {
		arrays[i] = t.(interface{ dirState() dirState }).dirState()
	}

	records := 0
	listed := make([]int, len(sp.caches)) // list number that last named each proc
	list := 0
	for ai, a := range arrays {
		for li, head := range a.heads {
			list++
			for r := head; r != 0; r = sp.dir[r].next {
				q := sp.dir[r].proc
				if listed[q] == list {
					return fmt.Errorf("array %d line %d: proc %d listed twice", ai, li, q)
				}
				listed[q] = list
				if records++; records >= len(sp.dir) {
					return fmt.Errorf("array %d line %d: more records on lists than the arena holds (%d)", ai, li, len(sp.dir))
				}
			}
		}
	}
	free := 0
	for r := sp.dirFree; r != 0; r = sp.dir[r].next {
		if free++; free >= len(sp.dir) {
			return fmt.Errorf("free list longer than the arena (%d)", len(sp.dir))
		}
	}
	if 1+records+free != len(sp.dir) {
		return fmt.Errorf("arena of %d records: %d on lists, %d free, 1 sentinel", len(sp.dir), records, free)
	}

	for q, c := range sp.caches {
		for _, tag := range c.tags {
			if tag == 0 {
				continue
			}
			gl := uint64(tag - 1)
			for ai, a := range arrays {
				li := gl - a.baseLine
				if gl < a.baseLine || li >= uint64(a.lines) {
					continue
				}
				if !dirCovers(sp, a, uint32(li), int32(q)) {
					return fmt.Errorf("array %d line %d: cached by proc %d, which is not on its list", ai, li, q)
				}
			}
		}
	}
	return nil
}

// dirCovers reports whether proc q is on the sharer list of line li of a.
func dirCovers(sp *Space, a dirState, li uint32, q int32) bool {
	if a.heads == nil {
		return false
	}
	for r := a.heads[li]; r != 0; r = sp.dir[r].next {
		if sp.dir[r].proc == q {
			return true
		}
	}
	return false
}

// sharersOf lists the processors on the sharer list starting at record head.
func sharersOf(sp *Space, head int32) []int32 {
	var procs []int32
	for r := head; r != 0; r = sp.dir[r].next {
		procs = append(procs, sp.dir[r].proc)
	}
	return procs
}

// Release returns a shared array's records to the arena; the other arrays'
// lists are untouched.
func TestReleaseDropsDirectory(t *testing.T) {
	const procs = 3
	sp, _ := space(procs)
	g := sim.NewGroup(procs)
	s := NewShared[float64](sp, 256) // 16 lines
	keep := NewShared[float64](sp, 64)
	for q := 0; q < procs; q++ {
		s.TouchRange(g.Proc(q), 0, 256, false)
		keep.Load(g.Proc(q), 0)
	}
	sp.MergeEpoch()
	s.Load(g.Proc(0), 0) // a hit: nothing linked
	flush(sp.caches[1])
	s.Load(g.Proc(1), 17) // a re-install: proc 1 is on the list already, no second record
	if err := checkDirectory(sp); err != nil {
		t.Fatal(err)
	}
	Release(s)
	if s.dirHead != nil {
		t.Error("released array keeps its directory")
	}
	if err := checkDirectory(sp); err != nil {
		t.Error(err)
	}
	if got := len(sharersOf(sp, sp.dirFree)); got != 16*procs {
		t.Errorf("%d records on the free list after the release, want %d", got, 16*procs)
	}
	if got := sharersOf(sp, keep.dirHead[0]); len(got) != procs {
		t.Errorf("surviving array's line lists %v", got)
	}
	// The next array's lists are built from the freed records.
	n := len(sp.dir)
	next := NewShared[float64](sp, 256)
	next.TouchRange(g.Proc(2), 0, 256, true)
	sp.MergeEpoch()
	if len(sp.dir) != n {
		t.Errorf("arena grew from %d to %d records with %d free", n, len(sp.dir), 16*procs)
	}
}
