package numa

import (
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"
	"weak"
)

// Host backing for simulated arrays (DESIGN.md §5.2 "Host backing"). Only
// host storage is decided here: simulated addresses, AllocBytes and every
// charge are the same whichever way an array is backed.

// mapMinBytes is the array size from which the backing is demand-zero pages
// instead of a heap slice: BenchmarkPrivateSparseCycle reads 5.7 / 9.7 / 12 µs
// per mapped array of 8 / 32 / 128 KB against 4.4 / 6.9 / 19 µs for make, and
// end to end 16–64 KB read the same wall while 128 KB gives back half the
// memory saved (DESIGN.md §5.2). A variable only so that tests can move it.
var mapMinBytes uintptr = 32 << 10

// mapBytes is the OS call, a variable so that a test can make it fail.
var mapBytes = osMap

// liveMaps counts the mappings made and not yet returned, over all spaces;
// only tests read it.
var liveMaps atomic.Int64

// chunkBytes is the size of one mapping. Arrays are carved out of it page by
// page because unmapping is the expensive call (a TLB shootdown: 7 µs apiece
// in a P = 512 cell, 18 µs with a busy second thread, against 2.4 µs for a
// page fault), and only address space is spent on the part nobody touches.
const chunkBytes = 32 << 20

var pageBytes = os.Getpagesize()

// hostChunk is one mapping. Its bytes are handed out once and never again, so
// every array starts on pages the kernel has yet to zero; it is unmapped when
// the last array carved from it is released.
type hostChunk struct {
	mem   []byte
	used  int      // bytes handed out
	live  int      // arrays handed out and not yet released
	drops []func() // per array handed out: nil its data, if it is still reachable
}

// hostMaps is a Space's list of live mappings. It is the argument of the
// Space's cleanup, so nothing in it may keep the Space reachable — and every
// Array does, which is why a chunk holds its arrays weakly.
type hostMaps struct {
	mu     sync.Mutex
	chunks map[*hostChunk]struct{}
	cur    *hostChunk // where the next array is carved from
}

// allocData returns the zeroed host slice behind a new array: for a large
// array of a pointer-free element type, whole pages of an anonymous private
// mapping — the kernel zeroes a page when it is first touched, so a rank's
// full-length array costs what the rank touches of it — else a heap slice.
// The garbage collector does not scan a mapping, hence pointer-free; when the
// kernel refuses a mapping (ENOMEM, no mmap on this OS) the heap serves too.
func allocData[T any](a *Array[T], n int) []T {
	var z T
	bytes := uintptr(n) * unsafe.Sizeof(z)
	if bytes < mapMinBytes || !pointerFree(reflect.TypeFor[T]()) {
		return make([]T, n)
	}
	w := weak.Make(a)
	mem, c := a.sp.maps.carve(int(bytes), func() {
		if a := w.Value(); a != nil {
			a.data = nil
		}
	})
	if c == nil {
		return make([]T, n)
	}
	a.chunk = c
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(mem))), n)
}

// tagMapMinBytes is the size of a machine's cache tags, all caches together,
// from which they are demand-zero pages instead of a heap slice: 16 MB is
// P = 128 at the default 4 MB cache. Below it — every machine of the paper —
// a cell either touches most of its tag pages or is over in a millisecond,
// and a page fault costs five times the clearing of the page it saves (it
// also holds the address-space lock against the faults of the other -jobs
// threads): on mapped tags a `-quick -exp all` pass read 12-22 % more wall,
// on heap tags the parent's. From there up the tags are what a processor
// could address, not what it touches, and the mapping is what keeps a
// P = 1024 sweep at 200 MB (DESIGN.md §5.2 "Cache tags"). A variable only so
// that tests can move it.
var tagMapMinBytes = 16 << 20

// allocTags gives every cache of s its zeroed tag array: consecutive pieces
// of one allocation — of tagMapMinBytes or more, a mapping, so that a
// simulated processor's cache costs the host the pages of the sets it
// installs into, not the 128 KB it could address; smaller, or refused by the
// kernel, a heap slice. The mapping is a chunk of its own that no array is
// carved from, so no Release reaches it and it lives until closeAll. It has
// no drop: Close takes the slices away itself, mapped or not, before the pages
// go, and the cleanup of an unreachable Space has nobody left to probe.
func allocTags(s *Space) {
	n := s.caches[0].slots()
	total := n * len(s.caches)
	var all []uint32
	if c := s.maps.mapTags(4 * total); c != nil {
		all = unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(c.mem))), total)
	} else {
		all = make([]uint32, total)
	}
	for i, c := range s.caches {
		c.tags = all[i*n : (i+1)*n : (i+1)*n]
	}
}

// pointerFree reports whether a value of type t holds no Go pointer.
func pointerFree(t reflect.Type) bool {
	switch k := t.Kind(); {
	case reflect.Bool <= k && k <= reflect.Complex128: // the numeric kinds, uintptr included
		return true
	case k == reflect.Array:
		return t.Len() == 0 || pointerFree(t.Elem())
	case k == reflect.Struct:
		for i := range t.NumField() {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// carve hands out n bytes of untouched pages and the chunk they belong to;
// the chunk is nil when the kernel refuses a new mapping.
func (h *hostMaps) carve(n int, drop func()) ([]byte, *hostChunk) {
	n = (n + pageBytes - 1) / pageBytes * pageBytes
	h.mu.Lock()
	defer h.mu.Unlock()
	c := h.cur
	if c == nil || n > len(c.mem)-c.used {
		if c = h.mapChunk(max(n, chunkBytes)); c == nil {
			return nil, nil
		}
		h.cur = c
	}
	mem := c.mem[c.used : c.used+n]
	c.used += n
	c.live++
	c.drops = append(c.drops, drop)
	return mem, c
}

// mapTags maps n bytes of cache tags as a chunk of their own; nil when they
// are too few to map or the kernel refuses.
func (h *hostMaps) mapTags(n int) *hostChunk {
	if n < tagMapMinBytes {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.mapChunk((n + pageBytes - 1) / pageBytes * pageBytes)
}

// mapChunk maps n bytes and lists them as a live chunk of h, whose lock the
// caller holds; nil when the kernel refuses.
func (h *hostMaps) mapChunk(n int) *hostChunk {
	mem, err := mapBytes(n)
	if err != nil {
		return nil
	}
	liveMaps.Add(1)
	c := &hostChunk{mem: mem}
	if h.chunks == nil {
		h.chunks = make(map[*hostChunk]struct{})
	}
	h.chunks[c] = struct{}{}
	return c
}

// release takes one array off c and unmaps c with its last one.
func (h *hostMaps) release(c *hostChunk) {
	h.mu.Lock()
	c.live--
	last := c.live == 0
	if last {
		delete(h.chunks, c)
		if h.cur == c {
			h.cur = nil
		}
	}
	h.mu.Unlock()
	if last {
		unmap(c.mem)
	}
}

// closeAll unmaps every live chunk and detaches the arrays carved from them.
func (h *hostMaps) closeAll() {
	h.mu.Lock()
	chunks := h.chunks
	h.chunks, h.cur = nil, nil
	h.mu.Unlock()
	for c := range chunks {
		for _, drop := range c.drops {
			drop()
		}
		unmap(c.mem)
	}
}

func unmap(mem []byte) {
	_ = osUnmap(mem) // a region this package mapped, whole: the kernel has no reason to refuse
	liveMaps.Add(-1)
}
