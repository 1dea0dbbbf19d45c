package numa

import (
	"slices"
	"testing"
	"testing/quick"

	"o2k/internal/sim"
)

func TestRehomeByElem(t *testing.T) {
	sp, _ := space(4)
	a := NewShared[float64](sp, 8192) // 4 pages at 16KB/8B
	a.PlaceUniform(0)
	moved := a.PlaceByElem(func(e int) int { return (e / 2048) % 4 })
	if moved != 3 { // page 0 stays on proc 0
		t.Fatalf("moved %d pages, want 3", moved)
	}
	// Re-homing to the same layout moves nothing.
	if again := a.PlaceByElem(func(e int) int { return (e / 2048) % 4 }); again != 0 {
		t.Fatalf("idempotent rehome moved %d", again)
	}
	for pg := 0; pg < 4; pg++ {
		if a.Home(pg*2048) != pg {
			t.Fatalf("page %d home %d", pg, a.Home(pg*2048))
		}
	}
}

func TestMultipleSharedArraysMergeIndependently(t *testing.T) {
	sp, _ := space(2)
	g := sim.NewGroup(2)
	a := NewShared[float64](sp, 256)
	b := NewShared[float64](sp, 256)
	p0, p1 := g.Proc(0), g.Proc(1)
	// p1 caches line 0 of both arrays.
	a.Load(p1, 0)
	b.Load(p1, 0)
	// p0 writes only array a.
	a.Store(p0, 0, 1)
	pen := sp.MergeEpoch()
	if pen[1] == 0 {
		t.Fatal("no invalidation penalty for a-line")
	}
	// b's line must have survived in p1's cache.
	hits := p1.CacheHits
	b.Load(p1, 0)
	if p1.CacheHits != hits+1 {
		t.Fatal("unwritten array's line was invalidated")
	}
}

func TestLineRangeCoversArrayContiguously(t *testing.T) {
	f := func(n16 uint16) bool {
		n := int(n16)%5000 + 1
		sp, _ := space(1)
		a := NewPrivate[float64](sp, 0, n)
		lo, hi := a.LineRange(0, n)
		if hi <= lo {
			return false
		}
		// Adjacent element ranges produce adjacent or identical line ranges.
		mid := n / 2
		if mid == 0 {
			return true
		}
		_, h1 := a.LineRange(0, mid)
		l2, _ := a.LineRange(mid, n)
		return l2 == h1 || l2 == h1-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAccessDeterminism(t *testing.T) {
	// Full SPMD run with shared data under the race detector and with
	// virtual-time comparison across repetitions.
	run := func() sim.Time {
		sp, _ := space(8)
		g := sim.NewGroup(8)
		a := NewShared[float64](sp, 16384)
		a.PlaceBlock()
		bar := sim.NewBarrierHook(8, nil, sp.MergeEpoch)
		g.Run(func(p *sim.Proc) {
			me := p.ID()
			for iter := 0; iter < 5; iter++ {
				lo, hi := me*2048, (me+1)*2048
				for v := lo; v < hi; v += 7 {
					a.Store(p, v, float64(v+iter))
				}
				bar.Wait(p)
				peer := (me + 3) % 8
				a.TouchRange(p, peer*2048, peer*2048+512, false)
				bar.Wait(p)
			}
		})
		return g.MaxTime()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("concurrent shared access nondeterministic: %v vs %v", a, b)
	}
}

func TestZeroLengthArray(t *testing.T) {
	sp, _ := space(1)
	a := NewPrivate[float64](sp, 0, 0)
	if len(a.Data()) != 0 {
		t.Fatal("zero array dims wrong")
	}
	if lo, hi := a.LineRange(0, 0); lo != 0 || hi != 0 {
		t.Fatal("zero array line range wrong")
	}
}

func TestNegativeLengthPanics(t *testing.T) {
	sp, _ := space(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPrivate[float64](sp, 0, -1)
}

// The sharer directory is a superset: it may name caches that no longer hold
// the line (LRU replacement drops lines without telling it; flushCaches, the
// test's own device, empties every cache at once).
func TestFlushCaches(t *testing.T) {
	sp, _ := space(2)
	g := sim.NewGroup(2)
	a := NewPrivate[float64](sp, 0, 64)
	p := g.Proc(0)
	a.Load(p, 0)
	a.Load(p, 0)
	if p.CacheHits != 1 {
		t.Fatal("warm hit expected")
	}
	flushCaches(sp)
	misses := p.LocalMisses
	a.Load(p, 0)
	if p.LocalMisses != misses+1 {
		t.Fatal("flush did not cool the cache")
	}

	// A flush leaves the sharer directory naming caches that hold nothing.
	// The next write of such a line must evict nothing, and must still take
	// the stale records off the line's list.
	const procs = 4
	sp, _ = space(procs)
	g = sim.NewGroup(procs)
	sh := NewShared[float64](sp, 64) // 4 lines
	for q := 0; q < procs; q++ {
		sh.TouchRange(g.Proc(q), 0, 64, false)
	}
	sp.MergeEpoch()
	flushCaches(sp)
	sh.Store(g.Proc(2), 0, 1)
	sh.Store(g.Proc(1), 40, 1)
	for q, d := range sp.MergeEpoch() {
		if d != 0 {
			t.Errorf("proc %d charged %v for invalidations after a flush", q, d)
		}
	}
	if ev := sp.CohEvictions(); slices.Max(ev) != 0 {
		t.Errorf("evictions after a flush: %v", ev)
	}
	for li, want := range [][]int32{{2}, {0, 1, 2, 3}, {1}, {0, 1, 2, 3}} {
		got := sharersOf(sp, sh.dirHead[li])
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("line %d lists procs %v after the merge, want %v", li, got, want)
		}
	}
}

func TestStructElementArrays(t *testing.T) {
	type particle struct {
		X, Y, M float64
	}
	sp, _ := space(2)
	g := sim.NewGroup(2)
	a := NewPrivate[particle](sp, 0, 100)
	p := g.Proc(0)
	a.Store(p, 3, particle{X: 1, Y: 2, M: 3})
	got := a.Load(p, 3)
	if got.Y != 2 {
		t.Fatalf("struct element corrupted: %+v", got)
	}
	if a.elemSize != 24 {
		t.Fatalf("struct sizing wrong: %d", a.elemSize)
	}
}
