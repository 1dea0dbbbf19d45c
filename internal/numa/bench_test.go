package numa

import (
	"fmt"
	"testing"

	"o2k/internal/machine"
	"o2k/internal/sim"
)

// Host-performance microbenchmarks of the memory-system simulator: these
// bound how much simulated work a real second buys.

func BenchmarkLoadHit(b *testing.B) {
	sp, _ := space(1)
	g := sim.NewGroup(1)
	a := NewPrivate[float64](sp, 0, 1024)
	p := g.Proc(0)
	a.Load(p, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Load(p, 0)
	}
}

func BenchmarkLoadStream(b *testing.B) {
	sp, _ := space(1)
	g := sim.NewGroup(1)
	a := NewPrivate[float64](sp, 0, 1<<16)
	p := g.Proc(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Load(p, i&(1<<16-1))
	}
}

func BenchmarkStoreSharedTracked(b *testing.B) {
	sp, _ := space(4)
	g := sim.NewGroup(4)
	a := NewShared[float64](sp, 1<<16)
	p := g.Proc(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Store(p, i&(1<<16-1), 1)
	}
}

func BenchmarkMergeEpoch(b *testing.B) {
	Unaudited(b)
	sp, _ := space(8)
	g := sim.NewGroup(8)
	a := NewShared[float64](sp, 1<<14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for q := 0; q < 8; q++ {
			p := g.Proc(q)
			for k := 0; k < 256; k++ {
				a.Store(p, (q*256+k)*16%(1<<14), 1)
			}
		}
		b.StartTimer()
		sp.MergeEpoch()
	}
}

func BenchmarkTouchRange(b *testing.B) {
	sp, _ := space(1)
	g := sim.NewGroup(1)
	a := NewPrivate[float64](sp, 0, 1<<16)
	p := g.Proc(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.TouchRange(p, 0, 1<<12, false)
	}
}

// BenchmarkReplayLoads charges a walk-shaped trace (a cell read followed by
// a burst of leaf loads, repeated) through ReplayLoads — compile, load
// footprint, charge — in four regimes, named by what the load-by-load chain
// meets in them (the regime check below runs the chain). hit: the 4 MB cache,
// every line alone in its set, every load after a line's first an MRU hit
// (the P = 1 cells). conflict: a two-set cache in which the x, y and m lines
// of a leaf share a set (arrays are page-aligned), so nearly every load finds
// its line in a non-MRU way; seven lines in two sets of four, which the
// footprint takes. symmetric: the 4 MB cache again,
// with y and m placed where every line of theirs falls in the set of the same
// line of x, so every leaf entry is three hits in a non-MRU way: what the
// symmetric blocks of the SHMEM cells do from P = 16 up. pinned-after-miss:
// as hit, with every line of the quartet invalidated before each pass, so
// each line is missed once (the CC-SAS cells).
func BenchmarkReplayLoads(b *testing.B) {
	walk := func(c, j int) int { return (c*11 + j*3) % 4096 }
	for _, regime := range []string{"hit", "symmetric", "pinned-after-miss"} {
		b.Run(regime, func(b *testing.B) { benchReplayLoads(b, regime, machine.Default(1), 512, walk) })
	}
	b.Run("conflict", func(b *testing.B) {
		cfg := machine.Default(1)
		cfg.CacheBytes = 2 * cacheWays * cfg.LineBytes
		// Two body lines and one cell line: seven lines, all resident.
		benchReplayLoads(b, "conflict", cfg, 5, func(c, j int) int { return (c + j*5) % 32 })
	})
}

func benchReplayLoads(b *testing.B, regime string, cfg machine.Config, cells int, leaf func(c, j int) int) {
	Unaudited(b)
	symmetric, cold := regime == "symmetric", regime == "pinned-after-miss"
	sp := NewSpace(machine.MustNew(cfg))
	g := sim.NewGroup(1)
	x := NewPrivate[float64](sp, 0, 4096)
	if symmetric {
		sameSetsAs(sp, x)
	}
	y := NewPrivate[float64](sp, 0, 4096)
	if symmetric {
		sameSetsAs(sp, x)
	}
	m := NewPrivate[float64](sp, 0, 4096)
	cl := NewPrivate[float64](sp, 0, 3*512)
	var tr []int32
	for c := 0; c < 512; c++ {
		tr = append(tr, int32(^(c % cells)))
		for j := 0; j < 6; j++ {
			tr = append(tr, int32(leaf(c, j)))
		}
	}
	p := g.Proc(0)
	cx, cy, cm, cc := x.Cursor(p), y.Cursor(p), m.Cursor(p), cl.Cursor(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cold {
			b.StopTimer()
			for _, a := range []*Array[float64]{x, y, m, cl} {
				sp.InvalidateSpan(0, a.baseLine, a.baseLine+uint64(a.lines()))
			}
			b.StartTimer()
		}
		ReplayLoads(tr, &cx, &cy, &cm, &cc)
	}
	b.StopTimer()
	// The regime: one more pass, load by load. Every tag movement is a miss, an
	// invalidation or a hit in a non-MRU way.
	c := sp.caches[0]
	if cold {
		for _, a := range []*Array[float64]{x, y, m, cl} {
			sp.InvalidateSpan(0, a.baseLine, a.baseLine+uint64(a.lines()))
		}
	}
	moved := c.gen - p.LocalMisses - p.RemoteMisses - c.cohEvicts
	for _, e := range tr {
		touchEntry(e, &cx, &cy, &cm, &cc)
	}
	if way := c.gen - p.LocalMisses - p.RemoteMisses - c.cohEvicts - moved; (symmetric || regime == "conflict") != (way*2 > uint64(3*len(tr))) {
		b.Errorf("%d of %d loads hit a non-MRU way", way, 3*len(tr))
	}
	cx.Flush()
	cy.Flush()
	cm.Flush()
	cc.Flush()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*3*len(tr)), "ns/load")
}

// BenchmarkCursorEdgePattern is the mesh cycles' edge loop: two cursors, per
// edge (a, b) the accesses u[a] u[b] acc[a] acc[a]<- acc[b] acc[b]<-, with a
// and b on different lines — a fifth of the paper suite's host time, and a
// pattern no single-line kernel shows, because every load leaves the line its
// array was on last. hit: the 4 MB cache, every line alone in its set, every
// access an MRU hit. conflict: a one-set cache holding exactly the four lines
// of a and b, so every load finds its line in the last way and reorders the
// set, and only the two stores are MRU hits.
func BenchmarkCursorEdgePattern(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		benchCursorEdges(b, machine.Default(1), func(j int) (int, int) {
			a := j * 7 % 4096
			return a, (a + 16 + j%5*16) % 4096
		})
	})
	b.Run("conflict", func(b *testing.B) {
		cfg := machine.Default(1)
		cfg.CacheBytes = cacheWays * cfg.LineBytes
		benchCursorEdges(b, cfg, func(j int) (int, int) { return j * 7 % 16, 16 + j*3%16 })
	})
}

func benchCursorEdges(b *testing.B, cfg machine.Config, edge func(j int) (a, b int)) {
	sp := NewSpace(machine.MustNew(cfg))
	g := sim.NewGroup(1)
	u := NewPrivate[float64](sp, 0, 4096)
	acc := NewPrivate[float64](sp, 0, 4096)
	ea, eb := make([]int32, 4096), make([]int32, 4096)
	for j := range ea {
		x, y := edge(j)
		ea[j], eb[j] = int32(x), int32(y)
	}
	p := g.Proc(0)
	u.TouchRange(p, 0, 4096, false)
	acc.TouchRange(p, 0, 4096, false)
	cu, ca := u.Cursor(p), acc.Cursor(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & 4095
		x, y := int(ea[j]), int(eb[j])
		f := cu.Load(x) - cu.Load(y)
		ca.Store(x, ca.Load(x)+f)
		ca.Store(y, ca.Load(y)-f)
	}
	b.StopTimer()
	cu.Flush()
	ca.Flush()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*6), "ns/access")
}

// BenchmarkPrivateSparseCycle prices the allocation path of a large-P mesh
// cycle: 512 ranks each get a full-length private array, scatter their 34
// elements into it (five clusters: ten cache lines on five host pages, what a
// P = 512 rank of the last cycle touches) and release it. mesh512 is that
// cycle's array (16 969 float64) at the shipped threshold; the size/backing
// grid is what mapMinBytes was chosen from.
func BenchmarkPrivateSparseCycle(b *testing.B) {
	b.Run("mesh512", func(b *testing.B) { benchSparseCycle(b, 16969) })
	for _, kb := range []int{8, 32, 128} {
		for _, backing := range []struct {
			name string
			min  uintptr
		}{{"heap", ^uintptr(0)}, {"map", 0}} {
			b.Run(fmt.Sprintf("%dKB/%s", kb, backing.name), func(b *testing.B) {
				defer func(old uintptr) { mapMinBytes = old }(mapMinBytes)
				mapMinBytes = backing.min
				benchSparseCycle(b, kb<<10/8)
			})
		}
	}
}

func benchSparseCycle(b *testing.B, n int) {
	const procs = 512
	sp, _ := space(procs)
	g := sim.NewGroup(procs)
	idx := make([]int32, 34)
	vals := make([]float64, len(idx))
	b.ReportAllocs()
	b.ResetTimer()
	arrays := make([]*Array[float64], procs)
	for i := 0; i < b.N; i++ {
		for q := range arrays {
			arrays[q] = NewPrivate[float64](sp, q, n)
		}
		for q, a := range arrays {
			for k := range idx {
				idx[k] = int32((q*33 + k/7*(n/5) + k%7*3) % n)
			}
			a.ScatterIdx(g.Proc(q), idx, vals)
		}
		for _, a := range arrays {
			Release(a)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*procs), "ns/array")
}

// BenchmarkMergeEpochWide is the merge at scale: 64 caches with disjoint
// per-proc write blocks nobody else has read, so every written line's sharer
// list names the writer alone and no cache is probed.
func BenchmarkMergeEpochWide(b *testing.B) {
	Unaudited(b)
	const procs = 64
	sp, _ := space(procs)
	g := sim.NewGroup(procs)
	a := NewShared[float64](sp, procs*4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for q := 0; q < procs; q++ {
			p := g.Proc(q)
			for k := 0; k < 64; k++ {
				a.Store(p, q*4096+k*8, 1)
			}
		}
		b.StartTimer()
		sp.MergeEpoch()
	}
}

// BenchmarkMergeEpochHalo is the merge with the mesh's sharing shape: every
// processor writes its own block after its two neighbours read the block's
// boundary lines, so the written lines' sharer lists are two or three records
// long and every merge evicts the neighbours' copies.
func BenchmarkMergeEpochHalo(b *testing.B) {
	Unaudited(b)
	for _, procs := range []int{64, 512} {
		b.Run(fmt.Sprintf("P%d", procs), func(b *testing.B) {
			const block, halo = 1024, 64 // elements: 64 lines per block, 4 shared with each neighbour
			sp, _ := space(procs)
			g := sim.NewGroup(procs)
			a := NewShared[float64](sp, procs*block)
			a.PlaceBlock()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for q := 0; q < procs; q++ {
					p := g.Proc(q)
					if q > 0 {
						a.TouchRange(p, q*block-halo, q*block, false)
					}
					if q < procs-1 {
						a.TouchRange(p, (q+1)*block, (q+1)*block+halo, false)
					}
				}
				for q := 0; q < procs; q++ {
					a.TouchRange(g.Proc(q), q*block, (q+1)*block, true)
				}
				b.StartTimer()
				sp.MergeEpoch()
			}
			b.StopTimer()
			var evicts uint64
			for _, e := range sp.CohEvictions() {
				evicts += e
			}
			b.ReportMetric(float64(evicts)/float64(b.N), "evictions/op")
		})
	}
}
