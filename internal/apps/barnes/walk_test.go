package barnes

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/nbody"
	"o2k/internal/numa"
	"o2k/internal/shm"
	"o2k/internal/sim"
)

// walkAccel runs the Barnes-Hut traversal against cursor-based readers:
// arithmetic and traversal order are nbody.Accel's, every load is a costed
// Cursor.Load. The production force loops replay the precomputed trace
// instead (force); this walker is the differential reference that pins
// the trace — visit sequence, accelerations, charges — to the real traversal.
func walkAccel(t *nbody.Tree, self int32, bx, by, theta float64,
	cx, cy, cm, ccl *numa.Cursor[float64]) (ax, ay float64, inter int) {

	stack := []int32{t.Root}
	tt := theta * theta // hoisted; (theta*theta)*d2 is the original association
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cell := &t.Cells[c]
		if cell.NBody == 0 {
			continue
		}
		if cell.Bodies != nil {
			for _, j := range cell.Bodies {
				if j == self {
					continue
				}
				ji := int(j)
				jx := cx.Load(ji)
				jy := cy.Load(ji)
				jm := cm.Load(ji)
				dx, dy := jx-bx, jy-by
				d2 := dx*dx + dy*dy + nbody.Soft2
				inv := 1 / (d2 * math.Sqrt(d2))
				ax += nbody.G * jm * dx * inv
				ay += nbody.G * jm * dy * inv
				inter++
			}
			continue
		}
		ci := int(3 * c)
		ccx := ccl.Load(ci)
		ccy := ccl.Load(ci + 1)
		ccm := ccl.Load(ci + 2)
		dx, dy := ccx-bx, ccy-by
		d2 := dx*dx + dy*dy
		if cell.Size*cell.Size < tt*d2 {
			d2 += nbody.Soft2
			inv := 1 / (d2 * math.Sqrt(d2))
			ax += nbody.G * ccm * dx * inv
			ay += nbody.G * ccm * dy * inv
			inter++
			continue
		}
		// Push children in reverse quadrant order so they pop in order.
		for q := 3; q >= 0; q-- {
			if ch := cell.Child[q]; ch >= 0 {
				stack = append(stack, ch)
			}
		}
	}
	return ax, ay, inter
}

// walkFixture builds one step's body/cell arrays on a fresh 1-proc space and
// hands the cursors to fn inside a simulated proc body. Each call allocates
// an identical layout, so two fixtures observe identical simulated addresses
// and their charge sequences are directly comparable.
func walkFixture(t *testing.T, lineBytes int, ss *StepStructure, m []float64,
	fn func(p *sim.Proc, cx, cy, cm, ccl *numa.Cursor[float64])) (sim.Time, uint64) {

	t.Helper()
	cfg := machine.Default(1)
	cfg.LineBytes = lineBytes
	mch := machine.MustNew(cfg)
	sp := numa.NewSpace(mch)
	g := sim.NewGroup(1)
	n := len(ss.X)
	x := numa.NewPrivate[float64](sp, 0, n)
	y := numa.NewPrivate[float64](sp, 0, n)
	bm := numa.NewPrivate[float64](sp, 0, n)
	cells := numa.NewPrivate[float64](sp, 0, 3*ss.Tree.NumCells())
	var total sim.Time
	var hits uint64
	g.Run(func(p *sim.Proc) {
		x.StoreRange(p, 0, ss.X)
		y.StoreRange(p, 0, ss.Y)
		bm.StoreRange(p, 0, m)
		cells.StoreRange(p, 0, flattenCells(ss.Tree))
		cx, cy, cm := x.Cursor(p), y.Cursor(p), bm.Cursor(p)
		ccl := cells.Cursor(p)
		t0 := p.Now()
		fn(p, &cx, &cy, &cm, &ccl)
		cx.Flush()
		cy.Flush()
		cm.Flush()
		ccl.Flush()
		total = p.Now() - t0
		hits = p.CacheHits
	})
	return total, hits
}

// TestWalkPlanMatchesCursorWalker pins the precomputed walk to the live
// traversal three ways: the recorded accelerations and interaction counts
// must equal the cursor walker's bit-for-bit, and the replayed charge
// sequence must cost exactly what the walker's loads cost — same virtual
// time, same hit counts — on identically laid-out spaces. On 128-byte lines
// the replay charges the compiled stream's load footprint; on 64-byte lines,
// for which no stream is compiled, it walks each body again and replays the
// entries.
func TestWalkPlanMatchesCursorWalker(t *testing.T) {
	w := Small()
	st := BuildStructure(w)
	m := nbody.NewPlummer(w.N, w.Seed).M
	for _, lineBytes := range []int{128, 64} {
		for _, ss := range st.Steps {
			wp := ss.Walk.Ensure()
			if wp.lineBytes != 128 || int(wp.off[w.N]) != len(wp.syms) || len(wp.syms) == 0 {
				t.Fatalf("stream for %d-byte lines: off[N]=%d, len(syms)=%d", wp.lineBytes, wp.off[w.N], len(wp.syms))
			}

			// Walker: full traversal with physics, through cursors.
			axW := make([]float64, w.N)
			ayW := make([]float64, w.N)
			tW, hW := walkFixture(t, lineBytes, ss, m, func(p *sim.Proc, cx, cy, cm, ccl *numa.Cursor[float64]) {
				for i := 0; i < w.N; i++ {
					bx, by := cx.Load(i), cy.Load(i)
					var inter int
					axW[i], ayW[i], inter = walkAccel(ss.Tree, int32(i), bx, by, w.Theta, cx, cy, cm, ccl)
					if inter != ss.Inter[i] {
						t.Fatalf("body %d: walker inter %d, structure %d", i, inter, ss.Inter[i])
					}
				}
			})

			for i := 0; i < w.N; i++ {
				if wp.AX[i] != axW[i] || wp.AY[i] != ayW[i] {
					t.Fatalf("body %d: plan accel (%v,%v) != walker (%v,%v)",
						i, wp.AX[i], wp.AY[i], axW[i], ayW[i])
				}
			}

			// Replay: the force phase's charge over the recorded walk, every
			// body on one processor — the footprint of the whole stream, and
			// body by body where it does not apply.
			tR, hR := walkFixture(t, lineBytes, ss, m, func(p *sim.Proc, cx, cy, cm, ccl *numa.Cursor[float64]) {
				fp := numa.NewLoadFootprint(wp.lineBytes, wp.syms)
				if took := numa.ChargeLoads(fp, cx, cy, cm, ccl); took != (lineBytes == wp.lineBytes) {
					t.Fatalf("%d-byte lines: the footprint took the charge: %v", lineBytes, took)
				} else if !took {
					for i := 0; i < w.N; i++ {
						chargeBody(wp, i, cx, cy, cm, ccl)
					}
				}
			})
			if tR != tW || hR != hW {
				t.Fatalf("%d-byte lines: replay charges differ: time %v vs %v, hits %d vs %d", lineBytes, tR, tW, hR, hW)
			}
		}
	}
}

// Two models on one plan set at once: the per-processor footprints each
// force phase builds on first use are built once, under a sync.Once per
// processor, and both runs report what they report one after the other
// (run it with -race).
func TestModelsShareForceFootprints(t *testing.T) {
	w := Small()
	mach := machine.MustNew(machine.Default(8))
	plans := BuildPlans(w, 8)
	var got [2]core.Metrics
	var wg sync.WaitGroup
	for k, model := range []core.Model{core.MP, core.SHMEM} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k] = RunWithPlans(model, mach, w, plans)
		}()
	}
	wg.Wait()
	fresh := BuildPlans(w, 8)
	for k, model := range []core.Model{core.MP, core.SHMEM} {
		if want := RunWithPlans(model, mach, w, fresh); !reflect.DeepEqual(got[k], want) {
			t.Errorf("%v on a shared plan set: %+v, alone: %+v", model, got[k], want)
		}
	}
	for s, pl := range plans {
		for q := range pl.loads {
			if pl.loads[q].fp == nil {
				t.Fatalf("step %d: no footprint for processor %d", s, q)
			}
		}
	}
}

// BenchmarkForceFootprint prices the two halves of a force phase's charge at
// Default size, P = 64, for processor 0 in step 0: build records its load
// footprint from the step's stream; charge charges it through cursors on the
// SHMEM layout, whose symmetric x, y and m blocks put their lines in shared
// cache sets, on a warm cache.
func BenchmarkForceFootprint(b *testing.B) {
	w := Default()
	pl := BuildPlans(w, 64)[0]
	wp := pl.Walk.Ensure()
	own := pl.OwnedBodies[0]
	b.Run("build", func(b *testing.B) {
		segs := make([][]uint16, len(own))
		for k, i := range own {
			segs[k] = wp.syms[wp.off[i]:wp.off[i+1]]
		}
		for range b.N {
			numa.NewLoadFootprint(wp.lineBytes, segs...)
		}
	})
	b.Run("charge", func(b *testing.B) {
		mach := machine.MustNew(machine.Default(64))
		world := shm.NewWorld(mach, numa.NewSpace(mach))
		var arrs [5]*shm.Sym[float64] // x, y, vx, vy, m, allocated as runSHMEM does
		for k := range arrs {
			arrs[k] = shm.AllocWorld[float64](world, w.N)
		}
		cells := shm.AllocWorld[float64](world, 3*pl.Tree.NumCells())
		p := sim.NewGroup(64).Proc(0)
		pe := world.PE(p)
		cx, cy, cm := arrs[0].Local(pe).Cursor(p), arrs[1].Local(pe).Cursor(p), arrs[4].Local(pe).Cursor(p)
		ccl := cells.Local(pe).Cursor(p)
		fp := pl.forceLoads(0, wp)
		b.ResetTimer()
		for range b.N {
			if !numa.ChargeLoads(fp, &cx, &cy, &cm, &ccl) {
				b.Fatal("the footprint rule declined the force phase")
			}
		}
	})
}
