package numa

import (
	"errors"
	"runtime"
	"testing"

	"o2k/internal/sim"
)

// Host backing (backing.go): what is mapped, that mapped memory reads as a
// fresh make would, and that every way an array can end returns it.

const mappedLen = 32768 // float64s: 256 KB, well above mapMinBytes

// tagMaps is the mappings an open Space holds before it has a single array,
// once mapTags has put the tags of these small machines on a mapping: the one
// they are carved from (allocTags).
const tagMaps = 1

// shippedTagMapMinBytes is the rule before any test moved it.
var shippedTagMapMinBytes = tagMapMinBytes

// mapTags maps the cache tags of every Space made in the rest of the test,
// however small its machine: the lifetime tests below run on two processors.
func mapTags(t *testing.T) {
	old := tagMapMinBytes
	tagMapMinBytes = 0
	t.Cleanup(func() { tagMapMinBytes = old })
}

// mappingHost settles the live-mapping count at zero, skips the test on a
// host that maps nothing, and puts the tags of the test's machines on
// mappings as those of a large machine are.
func mappingHost(t *testing.T) {
	t.Helper()
	AwaitNoMappings(t)
	mem, err := osMap(1)
	if err != nil {
		t.Skipf("no demand-zero mappings on this host: %v", err)
	}
	if err := osUnmap(mem); err != nil {
		t.Fatal(err)
	}
	mapTags(t)
}

// mustPanic runs f, fails unless it panics — with a Go panic the test binary
// survives, which a fault on unmapped memory would not allow — and returns
// what it panicked with.
func mustPanic(t *testing.T, what string, f func()) (r any) {
	t.Helper()
	defer func() {
		if r = recover(); r == nil {
			t.Errorf("%s: no panic", what)
		}
	}()
	f()
	return nil
}

// mustBeDead checks that every way to reach a's elements panics, the ways
// through bound, a cursor bound to a while it was alive, included.
func mustBeDead(t *testing.T, a *Array[float64], p *sim.Proc, bound *Cursor[float64]) {
	t.Helper()
	if a.Data() != nil {
		t.Error("dead array still hands out its data")
	}
	idx, out := []int32{3}, make([]float64, 1)
	mustPanic(t, "Load", func() { a.Load(p, 3) })
	mustPanic(t, "Store", func() { a.Store(p, 3, 1) })
	mustPanic(t, "GatherIdx", func() { a.GatherIdx(p, idx, out) })
	mustPanic(t, "ScatterIdx", func() { a.ScatterIdx(p, idx, out) })
	mustPanic(t, "StoreRange", func() { a.StoreRange(p, 3, out) })
	cu := a.Cursor(p)
	for _, cu := range []*Cursor[float64]{&cu, bound} {
		mustPanic(t, "Cursor.Load", func() { cu.Load(3) })
		mustPanic(t, "Cursor.Store", func() { cu.Store(3, 1) })
	}
}

func TestThresholdIsInBytes(t *testing.T) {
	mappingHost(t)
	sp, _ := space(1)
	defer sp.Close()
	type wide struct{ f [12]float64 } // 96 bytes
	NewPrivate[float64](sp, 0, 2048)  // 16 KB
	if n := LiveMappings(); n != tagMaps {
		t.Fatalf("a 16 KB array was mapped (%d live)", n)
	}
	NewPrivate[wide](sp, 0, 400) // 37.5 KB in 400 elements
	if n := LiveMappings(); n != tagMaps+1 {
		t.Fatalf("a 37.5 KB array of 96-byte elements was not mapped (%d live)", n)
	}
}

func TestMappedArrayReadsZero(t *testing.T) {
	mappingHost(t)
	sp, _ := space(2)
	defer sp.Close()
	p := sim.NewGroup(2).Proc(1)
	priv := NewPrivate[float64](sp, 1, mappedLen)
	shared := NewShared[[3]int32](sp, mappedLen)
	if priv.chunk == nil || shared.chunk != priv.chunk || LiveMappings() != tagMaps+1 {
		t.Fatalf("two large arrays should share one mapping (%d live)", LiveMappings())
	}
	if len(priv.Data()) != mappedLen || cap(priv.Data()) != mappedLen {
		t.Fatalf("len %d cap %d, want %d", len(priv.Data()), cap(priv.Data()), mappedLen)
	}
	for i, v := range priv.Data() {
		if v != 0 {
			t.Fatalf("private[%d] = %v before any write", i, v)
		}
	}
	for i, v := range shared.Data() {
		if v != [3]int32{} {
			t.Fatalf("shared[%d] = %v before any write", i, v)
		}
	}
	for _, i := range []int{0, 511, 512, 20000, mappedLen - 1} {
		if v := priv.Load(p, i); v != 0 {
			t.Fatalf("Load(%d) = %v before any write", i, v)
		}
	}
	priv.Store(p, 20000, 2.5)
	shared.Store(p, mappedLen-1, [3]int32{1, 2, 3})
	if priv.Load(p, 20000) != 2.5 || priv.Data()[19999] != 0 || shared.Data()[mappedLen-1][2] != 3 {
		t.Fatal("a mapped array lost a store")
	}
}

func TestReleaseUnmapsAndDetaches(t *testing.T) {
	mappingHost(t)
	sp, _ := space(2)
	defer sp.Close()
	g := sim.NewGroup(2)
	p := g.Proc(0)
	a := NewPrivate[float64](sp, 0, mappedLen)
	s := NewShared[float64](sp, mappedLen)
	small := NewPrivate[float64](sp, 0, 16)
	a.Store(p, 7, 1)
	s.Store(p, 7, 1)
	ca, cs, csmall := a.Cursor(p), s.Cursor(p), small.Cursor(p)
	sp.MergeEpoch() // a shared array may only be released with its write-sets merged
	for range 2 {   // the second round: releasing twice is a no-op
		Release(a)
		if s.Load(p, 7) != 1 || LiveMappings() != tagMaps+1 {
			t.Fatal("a mapping must stay while an array carved from it is alive")
		}
	}
	for range 2 {
		Release(s)
		Release(small)
		if n := LiveMappings(); n != tagMaps {
			t.Fatalf("%d mappings live after the last Release, want the tags' alone", n)
		}
	}
	mustBeDead(t, a, p, &ca)
	mustBeDead(t, s, p, &cs)
	mustBeDead(t, small, p, &csmall)
	if len(a.Data()) != 0 || sp.AllocBytes() == 0 {
		t.Fatal("Release must empty the array and leave the model's allocation count alone")
	}
	// The space outlives its arrays: the tags are its own mapping.
	if b := NewPrivate[float64](sp, 0, mappedLen); b.Load(p, 5) != 0 || LiveMappings() != tagMaps+1 {
		t.Fatal("allocation after the last Release")
	}
}

func TestCloseUnmapsAndDetaches(t *testing.T) {
	mappingHost(t)
	sp, _ := space(2)
	g := sim.NewGroup(2)
	p := g.Proc(0)
	a := NewPrivate[float64](sp, 0, mappedLen)
	s := NewShared[float64](sp, mappedLen)
	gone := NewPrivate[float64](sp, 0, mappedLen)
	heap := NewPrivate[float64](sp, 0, 16)
	heap.Store(p, 3, 1)
	s.Load(g.Proc(1), 7)
	s.Store(p, 7, 1) // left unmerged: the next merge would probe the other cache
	ca, cs, cheap := a.Cursor(p), s.Cursor(p), heap.Cursor(p)
	Release(gone)
	if n := LiveMappings(); n != tagMaps+1 {
		t.Fatalf("%d mappings live, want %d", n, tagMaps+1)
	}
	sp.Close()
	sp.Close()
	if n := LiveMappings(); n != 0 {
		t.Fatalf("%d mappings live after Close", n)
	}
	mustBeDead(t, a, p, &ca)
	mustBeDead(t, s, p, &cs)
	Release(a) // and Release after Close is a no-op too
	// Close ends the space, heap-backed arrays included: their data is the
	// collector's, but the cache tags every access probes are gone.
	if heap.Data()[3] != 1 {
		t.Fatal("Close took the data of a heap-backed array")
	}
	mustPanic(t, "Load of a heap-backed array", func() { heap.Load(p, 3) })
	mustPanic(t, "Cursor.Load of a heap-backed array", func() { cheap.Load(3) })
	mustPanic(t, "ReplayLoads", func() { ReplayLoads([]int32{3, ^1}, &cheap, &cheap, &cheap, &cheap) })
	mustPanic(t, "TouchRange", func() { heap.TouchRange(p, 0, 16, false) })
	mustPanic(t, "MergeEpoch", func() { sp.MergeEpoch() })
	mustPanic(t, "InvalidateSpan", func() { sp.InvalidateSpan(1, 0, 4) })
	if r := mustPanic(t, "allocation", func() { NewPrivate[float64](sp, 0, 16) }); r != "numa: use of closed Space" {
		t.Fatalf("allocation on a closed Space panics with %v", r)
	}
	if sp.AllocBytes() == 0 || len(sp.CohEvictions()) != 2 {
		t.Fatal("the counts of a closed Space must stay readable")
	}
}

// With the kernel refusing every mapping the tags are heap slices, and Close
// ends the space all the same.
func TestCloseEndsASpaceOnHeapTags(t *testing.T) {
	old := mapBytes
	defer func() { mapBytes = old }()
	mapBytes = func(int) ([]byte, error) { return nil, errors.New("cannot allocate memory") }
	sp, _ := space(2)
	p := sim.NewGroup(2).Proc(0)
	a := NewPrivate[float64](sp, 0, mappedLen)
	cu := a.Cursor(p)
	if a.Load(p, 3) != 0 || a.chunk != nil {
		t.Fatal("want a working heap-backed array")
	}
	sp.Close()
	mustPanic(t, "Load", func() { a.Load(p, 3) })
	mustPanic(t, "Cursor.Load", func() { cu.Load(3) })
	mustPanic(t, "allocation", func() { NewPrivate[float64](sp, 0, 16) })
}

func TestPointerfulElementsStayOnTheHeap(t *testing.T) {
	mappingHost(t)
	sp, _ := space(1)
	defer sp.Close()
	p := sim.NewGroup(1).Proc(0)
	type boxed struct {
		k int
		p *int
	}
	ptrs := NewPrivate[*int](sp, 0, mappedLen)
	boxes := NewPrivate[boxed](sp, 0, mappedLen)
	strs := NewPrivate[[2]string](sp, 0, mappedLen)
	if n := LiveMappings(); n != tagMaps {
		t.Fatalf("%d arrays of pointerful elements were mapped", n-tagMaps)
	}
	for i := range mappedLen {
		v := new(int)
		*v = i
		ptrs.Data()[i] = v
		w := new(int)
		*w = -i
		boxes.Data()[i] = boxed{i, w}
	}
	strs.Store(p, 9, [2]string{"a", string(make([]byte, 64))})
	runtime.GC()
	runtime.GC()
	for i := range mappedLen {
		if *ptrs.Load(p, i) != i || *boxes.Data()[i].p != -i {
			t.Fatalf("element %d did not survive a collection", i)
		}
	}
	if len(strs.Load(p, 9)[1]) != 64 {
		t.Fatal("string element did not survive a collection")
	}
}

// sparseRun is a small run over large arrays: each of four processors
// allocates, scatters into, gathers from and releases its own arrays while
// all of them write one shared array.
func sparseRun() (sim.Counters, sim.Time, uint64) {
	sp, _ := space(4)
	defer sp.Close()
	g := sim.NewGroup(4)
	shared := NewShared[float64](sp, mappedLen)
	idx := make([]int32, 34)
	vals := make([]float64, len(idx))
	for round := range 3 {
		for q := range 4 {
			p := g.Proc(q)
			for k := range idx {
				idx[k] = int32((k*977 + q*131 + round*17) % mappedLen)
				vals[k] = float64(k + q)
			}
			a := NewPrivate[float64](sp, q, mappedLen)
			a.ScatterIdx(p, idx, vals)
			a.GatherIdx(p, idx, vals)
			shared.ScatterIdx(p, idx, vals)
			Release(a)
		}
		sp.MergeEpoch()
	}
	return g.TotalCounters(), g.MaxTime(), sp.AllocBytes()
}

func TestRefusedMappingFallsBackToTheHeap(t *testing.T) {
	mappingHost(t)
	wantC, wantT, wantB := sparseRun()
	old := mapBytes
	defer func() { mapBytes = old }()
	asked := 0
	mapBytes = func(int) ([]byte, error) {
		asked++
		return nil, errors.New("cannot allocate memory")
	}
	gotC, gotT, gotB := sparseRun()
	if asked != tagMaps+13 { // the tags, the shared array, twelve private ones: all on the heap
		t.Fatalf("the stub was asked for %d mappings, want %d", asked, tagMaps+13)
	}
	if n := LiveMappings(); n != 0 {
		t.Fatalf("%d mappings live though every one was refused", n)
	}
	if gotC != wantC || gotT != wantT || gotB != wantB {
		t.Fatalf("run on the heap differs from the mapped run:\n%+v %v %d\n%+v %v %d", gotC, gotT, gotB, wantC, wantT, wantB)
	}
}

func TestMappedArraysStayOffTheHeap(t *testing.T) {
	mappingHost(t)
	sp, _ := space(1)
	defer sp.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	arrays := make([]*Array[float64], 512)
	for i := range arrays {
		arrays[i] = NewPrivate[float64](sp, 0, mappedLen) // 128 MB as heap slices
	}
	runtime.ReadMemStats(&after)
	for _, a := range arrays {
		if a.chunk == nil {
			t.Fatal("a 256 KB array is on the heap")
		}
	}
	if n, want := LiveMappings(), int64(tagMaps+len(arrays)*mappedLen*8/chunkBytes); n != want {
		t.Fatalf("%d mappings for 128 MB of arrays, want %d", n, want)
	}
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown >= 8<<20 {
		t.Fatalf("heap grew by %d bytes for 512 mapped arrays", grown)
	}
	runtime.KeepAlive(arrays)
}

func TestAbandonedSpaceIsCleanedUp(t *testing.T) {
	mappingHost(t)
	func() {
		sp, _ := space(2)
		p := sim.NewGroup(2).Proc(0)
		for range 8 {
			NewPrivate[float64](sp, 0, mappedLen).Store(p, 5, 1)
		}
		NewShared[float64](sp, mappedLen)
	}()
	if n := LiveMappings(); n != tagMaps+1 {
		t.Fatalf("%d mappings live, want %d", n, tagMaps+1)
	}
	AwaitNoMappings(t)
}

// An array larger than a chunk gets a mapping of its own size, and the
// arrays after it start a new chunk.
func TestArrayLargerThanAChunk(t *testing.T) {
	mappingHost(t)
	sp, _ := space(1)
	defer sp.Close()
	p := sim.NewGroup(1).Proc(0)
	const n = chunkBytes/8 + 1000
	big := NewPrivate[float64](sp, 0, n)
	next := NewPrivate[float64](sp, 0, mappedLen)
	if big.chunk == nil || len(big.chunk.mem) < n*8 || next.chunk == nil || next.chunk == big.chunk {
		t.Fatal("want a mapping of its own for the big array and a fresh chunk after it")
	}
	big.Store(p, n-1, 3)
	if big.Load(p, n-1) != 3 || big.Load(p, n-2) != 0 || next.Load(p, 0) != 0 {
		t.Fatal("big array does not read back")
	}
	Release(big)
	if n := LiveMappings(); n != tagMaps+1 {
		t.Fatalf("%d mappings live after releasing the big array, want %d", n, tagMaps+1)
	}
}
