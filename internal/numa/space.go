package numa

import (
	"runtime"
	"sync"
	"sync/atomic"

	"o2k/internal/machine"
	"o2k/internal/sim"
)

// Space is the memory system of one simulated machine run: it owns the
// per-processor cache simulators, hands out disjoint address ranges to
// arrays, and performs the epoch coherence merge for shared arrays.
type Space struct {
	M *machine.Machine

	caches   []*cache
	nextBase atomic.Uint64

	mu     sync.Mutex
	shared []epochTracker // shared arrays with live write-sets

	// maps lists the live demand-zero mappings behind this space's cache tags
	// and large arrays (backing.go). The last Release of a mapping's arrays
	// unmaps it, Close unmaps the rest, and a cleanup on the Space does if
	// nobody closed it.
	maps *hostMaps

	// Scratch for MergeEpoch, reused across barrier episodes. Safe because
	// MergeEpoch only runs from a barrier rendezvous hook while every
	// processor is blocked, and each participant reads its penalty entry
	// before leaving the barrier — so the previous episode's slices are
	// fully consumed before the next merge can start.
	mergeEvicts []uint64
	mergePen    []sim.Time

	// dir is the arena behind every shared array's sharer lists (Array.dirHead
	// indexes it; record 0 is the nil sentinel) and dirFree heads its free
	// list. Misses link records, the merge and Release unlink them — all on
	// the one scheduler thread that runs the space's processors.
	dir     []sharer
	dirFree int32

	// Scratch for the footprint rule (findFootprint, occupancy), on the one
	// scheduler thread as dir is: a stamp per array-local line (an epoch<<16
	// and, in the merging passes, the arrays that accessed and stored the
	// line), per cache set the lines a count put there, the lists' logs of
	// first reaches, and the call's logs of accesses to charge and of lines to
	// move to MRU. fpMemo remembers the footprint of every distinct ChargeLoop
	// call, on the same thread.
	fpLines  []uint64
	fpSets   []uint64
	fpReach  []uint64
	fpEpoch  uint64
	fpEvents []fpEvent
	fpLast   []fpEvent
	fpMemo   map[fpKey]footprint

	allocBytes atomic.Uint64
}

// sharer is one directory record: processor proc may hold the line whose list
// the record is on; next is the following record's index (0 ends the list).
type sharer struct {
	proc, next int32
}

// epochTracker is the slice of Array behaviour the coherence merge needs.
type epochTracker interface {
	// mergeEpoch applies this array's per-proc write-sets to every other
	// processor's cache, accumulating per-proc invalidation counts into
	// evicts, then clears the write-sets.
	mergeEpoch(caches []*cache, evicts []uint64)
}

// NewSpace creates the memory system for machine m.
func NewSpace(m *machine.Machine) *Space {
	s := &Space{M: m, caches: make([]*cache, m.Procs()), maps: new(hostMaps), dir: make([]sharer, 1)}
	for i := range s.caches {
		s.caches[i] = newCache(m.Cfg.CacheBytes, m.Cfg.LineBytes)
		s.caches[i].sp = s
	}
	allocTags(s)
	s.nextBase.Store(uint64(m.Cfg.PageBytes)) // keep address 0 unused
	// The Space is unreachable only once every Array and every cache is (each
	// points at it), so nothing can read a mapping the cleanup takes away.
	runtime.AddCleanup(s, (*hostMaps).closeAll, s.maps)
	return s
}

// Close ends s: it unmaps the cache tags and every mapped array still alive,
// and nothing of s may be used afterwards — allocating panics with "numa: use
// of closed Space", and any access, merge or invalidation, through a mapped or
// a heap-backed array alike, panics on the nil tags or the nil data (a Go
// panic a caller can recover, never a fault on an unmapped page). What was
// counted stays readable: AllocBytes, CohEvictions. Call it when the run is
// over and its results have been read out. Closing twice is a no-op, and a
// space nobody closes is cleaned up when the collector finds it unreachable.
func (s *Space) Close() {
	for _, c := range s.caches {
		// Before the pages go: a probe after Close finds no slice, not a hole.
		c.tags = nil
	}
	s.fpMemo = nil
	s.maps.closeAll()
}

// closed reports whether Close has run.
func (s *Space) closed() bool { return s.caches[0].tags == nil }

// reserve claims an address range of n bytes aligned to the page size.
//
// The total address range is bounded so that every global line index fits a
// 32-bit cache tag (see cache.go): with 128-byte lines that is half a
// terabyte of simulated memory, far beyond any workload here.
func (s *Space) reserve(n int) uint64 {
	pb := uint64(s.M.Cfg.PageBytes)
	sz := (uint64(n) + pb - 1) / pb * pb
	if sz == 0 {
		sz = pb
	}
	end := s.nextBase.Add(sz)
	if end/uint64(s.M.Cfg.LineBytes) >= 1<<32-1 {
		panic("numa: address space exhausted (global line index no longer fits a 32-bit cache tag)")
	}
	return end - sz
}

func (s *Space) registerShared(t epochTracker) {
	s.mu.Lock()
	s.shared = append(s.shared, t)
	s.mu.Unlock()
}

func (s *Space) unregisterShared(t epochTracker) {
	s.mu.Lock()
	for i, st := range s.shared {
		if st == t {
			s.shared = append(s.shared[:i], s.shared[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
}

func (s *Space) addAlloc(n int) { s.allocBytes.Add(uint64(n)) }

// AllocBytes reports total model-visible memory allocated in this space.
func (s *Space) AllocBytes() uint64 { return s.allocBytes.Load() }

// MergeEpoch resolves coherence for all shared arrays: every line written by
// some processor since the previous merge is invalidated in all other caches.
// It returns the per-processor virtual-time penalty (invalidation processing)
// that the caller — a barrier implementation — must charge before releasing
// each processor.
//
// MergeEpoch must be called while every processor in the space is blocked
// (i.e., from inside a barrier's rendezvous), since it touches all caches.
func (s *Space) MergeEpoch() []sim.Time {
	if s.mergeEvicts == nil {
		s.mergeEvicts = make([]uint64, len(s.caches))
		s.mergePen = make([]sim.Time, len(s.caches))
	}
	evicts := s.mergeEvicts
	clear(evicts)
	s.mu.Lock()
	trackers := s.shared
	s.mu.Unlock()
	for _, t := range trackers {
		t.mergeEpoch(s.caches, evicts)
	}
	pen := s.mergePen
	per := s.M.Cfg.CohInvalPerLine
	for i, e := range evicts {
		pen[i] = sim.Time(e) * per
	}
	if afterMerge != nil {
		afterMerge(s)
	}
	return pen
}

// afterMerge, when set, sees the space at the end of every MergeEpoch. Like
// refModel it is for tests only (dir_test.go audits the sharer directory
// through it, also for spaces an application creates internally) and must
// only be changed while no simulation is running.
var afterMerge func(*Space)

// addSharer puts processor q on the sharer list headed by *head unless the
// list already names it. Lists are short (the caches that read one line
// between two writes of it), so the duplicate check is a walk.
func (s *Space) addSharer(head *int32, q int32) {
	for r := *head; r != 0; r = s.dir[r].next {
		if s.dir[r].proc == q {
			return
		}
	}
	r := s.dirFree
	if r != 0 {
		s.dirFree = s.dir[r].next
	} else {
		r = int32(len(s.dir))
		s.dir = append(s.dir, sharer{})
	}
	s.dir[r] = sharer{q, *head}
	*head = r
}

// freeSharers returns the whole list starting at record head to the free list.
func (s *Space) freeSharers(head int32) {
	for r := head; r != 0; {
		next := s.dir[r].next
		s.dir[r].next, s.dirFree = s.dirFree, r
		r = next
	}
}

// InvalidateSpan drops the contiguous global line range [lo, hi) from
// processor pe's cache and returns how many lines were actually evicted.
// Like MergeEpoch, it must only be called while pe is blocked at a rendezvous.
func (s *Space) InvalidateSpan(pe int, lo, hi uint64) int {
	c := s.caches[pe]
	n := 0
	for l := lo; l < hi; l++ {
		if c.invalidate(l) {
			n++
		}
	}
	return n
}

// CohEvictions reports, per processor, how many cache lines coherence has
// invalidated so far (a proxy for coherence misses in the traffic tables).
func (s *Space) CohEvictions() []uint64 {
	out := make([]uint64, len(s.caches))
	for i, c := range s.caches {
		out[i] = c.cohEvicts
	}
	return out
}
