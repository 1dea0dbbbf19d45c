package numa

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"o2k/internal/machine"
	"o2k/internal/sim"
)

// procState is everything the cost model is allowed to change on a processor.
type procState struct {
	Clock    sim.Time
	Phases   [sim.NumPhases]sim.Time
	Counters sim.Counters
}

// traceResult snapshots the observable outcome of one trace execution.
type traceResult struct {
	Procs    []procState
	Evicts   []uint64
	PenLog   []sim.Time // concatenated MergeEpoch penalties, in call order
	Tags     [][]uint32 // final tag array of every cache, LRU order included
	Checksum float64    // data written through the arrays (model-independent)
	Writes   [][]uint32 // write-sets, where a test logs them
	Data     any        // array contents, where a test snapshots them
	// Rule is not compared: ChargeLoop's calls, those the footprint rule
	// charged, and those it charged with its lines last accessed in another
	// order than first, where a test counts them.
	Rule [3]int64
}

// mergeEpoch resolves coherence at a synchronization point and charges the
// penalties exactly as a barrier would, logging them.
func (res *traceResult) mergeEpoch(sp *Space, g *sim.Group) {
	for i, d := range sp.MergeEpoch() {
		g.Proc(i).Advance(d)
		res.PenLog = append(res.PenLog, d)
	}
}

// snapshot records every processor's final state, the eviction counts and the
// cache contents.
func (res *traceResult) snapshot(sp *Space, g *sim.Group) {
	for i := 0; i < g.Size(); i++ {
		p := g.Proc(i)
		res.Procs = append(res.Procs, procState{p.Now(), phaseTimes(p), p.Counters})
	}
	res.Evicts = sp.CohEvictions()
	for _, c := range sp.caches {
		res.Tags = append(res.Tags, slices.Clone(c.tags))
	}
	runtime.KeepAlive(sp) // the last Clone reads tags that only sp keeps mapped
}

// diff names the first field in which res differs from ref ("" if none),
// without printing whole tag arrays.
func (res traceResult) diff(ref traceResult) string {
	switch {
	case !reflect.DeepEqual(res.Procs, ref.Procs):
		return fmt.Sprintf("processor states\nfast: %+v\nref:  %+v", res.Procs, ref.Procs)
	case !reflect.DeepEqual(res.Evicts, ref.Evicts):
		return fmt.Sprintf("coherence evictions\nfast: %v\nref:  %v", res.Evicts, ref.Evicts)
	case !reflect.DeepEqual(res.PenLog, ref.PenLog):
		return fmt.Sprintf("merge penalties\nfast: %v\nref:  %v", res.PenLog, ref.PenLog)
	case res.Checksum != ref.Checksum:
		return fmt.Sprintf("checksum: fast %v, ref %v", res.Checksum, ref.Checksum)
	case !reflect.DeepEqual(res.Writes, ref.Writes):
		return "write-sets"
	case !reflect.DeepEqual(res.Data, ref.Data):
		return "array contents"
	}
	for q := range res.Tags {
		if !slices.Equal(res.Tags[q], ref.Tags[q]) {
			return fmt.Sprintf("tags of cache %d", q)
		}
	}
	return ""
}

// traceCfg is one machine shape for runTrace.
type traceCfg struct {
	name       string
	procs      int
	cacheBytes int // 0 = the machine default
	steps      int
	tune       func(*machine.Config) // adjusts the machine, nil = the default one
	place      func(elem int) int    // PlaceByElem owner for every shared array, nil = interleaved and block
}

// runTrace executes a seeded random access trace against a fresh Space with
// the given cost-model selection and returns the observable state. The trace
// is generated from the seed alone, so two calls with the same seed perform
// the identical operation sequence.
func runTrace(t *testing.T, tc traceCfg, seed int64, useRef bool) traceResult {
	t.Helper()
	refModel = useRef
	defer func() { refModel = false }()

	procs := tc.procs
	cfg := machine.Default(procs)
	cfg.CacheBytes = cmp.Or(tc.cacheBytes, cfg.CacheBytes)
	if tc.tune != nil {
		tc.tune(&cfg)
	}
	sp := NewSpace(machine.MustNew(cfg))
	g := sim.NewGroup(procs)

	shA := NewShared[float64](sp, 4096)
	placeInterleave(shA)
	shB := NewShared[int32](sp, 1000) // odd length: exercises partial last line
	shB.PlaceBlock()
	var priv []*Array[float64]
	for i := 0; i < procs; i++ {
		priv = append(priv, NewPrivate[float64](sp, i, 512))
	}
	// Replay quartet: body coordinates/masses plus a cell store, shaped like
	// the tree-walk arrays ReplayLoads was built for.
	shX := NewShared[float64](sp, 2048)
	placeInterleave(shX)
	shY := NewShared[float64](sp, 2048)
	shY.PlaceBlock()
	shM := NewShared[float64](sp, 2048)
	placeInterleave(shM)
	shC := NewShared[float64](sp, 3*256)
	shC.PlaceBlock()
	// A per-cycle buffer like the mesh's contribution array: released and
	// replaced mid-trace, taking its sharer lists with it.
	shS := NewShared[float64](sp, 1500)
	shS.PlaceBlock()
	if tc.place != nil {
		for _, a := range []interface{ PlaceByElem(func(int) int) }{shA, shB, shX, shY, shM, shC, shS} {
			a.PlaceByElem(tc.place)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	phases := []sim.Phase{sim.PhaseCompute, sim.PhaseMark, sim.PhaseRemap}
	res := traceResult{}
	sum := 0.0
	// The index lists of the flux calls so far, each with the end of the
	// window its elements were drawn from.
	type fluxList struct {
		ea, eb []int32
		end    int
	}
	var fluxLists []fluxList

	for step := 0; step < tc.steps; step++ {
		p := g.Proc(rng.Intn(procs))
		if rng.Intn(16) == 0 {
			p.SetPhase(phases[rng.Intn(len(phases))])
		}
		switch rng.Intn(13) {
		case 0:
			sum += shA.Load(p, rng.Intn(len(shA.data)))
		case 1:
			shA.Store(p, rng.Intn(len(shA.data)), float64(step))
		case 2:
			if i := rng.Intn(len(shB.data)); rng.Intn(2) == 0 {
				shB.Store(p, i, int32(step))
			} else {
				sum += float64(shB.Load(p, i))
			}
		case 3:
			lo := rng.Intn(len(shA.data))
			hi := lo + rng.Intn(len(shA.data)-lo)
			shA.TouchRange(p, lo, hi, rng.Intn(2) == 0)
		case 4:
			lo := rng.Intn(len(shB.data))
			shB.TouchRange(p, lo, lo+rng.Intn(len(shB.data)-lo), true)
		case 5:
			a := priv[p.ID()]
			if rng.Intn(2) == 0 {
				a.Store(p, rng.Intn(len(a.data)), float64(step))
			} else {
				sum += a.Load(p, rng.Intn(len(a.data)))
			}
		case 6:
			// Cursor load chains.
			cu := shA.Cursor(p)
			n := 1 + rng.Intn(32)
			for k := 0; k < n; k++ {
				sum += cu.Load(rng.Intn(len(shA.data)))
			}
			cu.Flush()
		case 7:
			// A cursor load chain on elements of another size.
			cb := shB.Cursor(p)
			n := 1 + rng.Intn(32)
			for k := 0; k < n; k++ {
				sum += float64(cb.Load(rng.Intn(len(shB.data))))
			}
			cb.Flush()
		case 8:
			// A stencil-shaped ChargeLoop: three load streams of shA, two of them on
			// one line (j-1, j+1), and a store stream to a shared or a private
			// array.
			dst := [...]*Array[float64]{shS, priv[p.ID()]}[rng.Intn(2)]
			ca, cd := shA.Cursor(p), dst.Cursor(p)
			n := 1 + rng.Intn(64)
			row := 1 + rng.Intn(len(shA.data)-n-2)
			ChargeLoop(0, n, Stream[float64]{C: &ca, Off: rng.Intn(len(shA.data) - n)},
				Stream[float64]{C: &ca, Off: row - 1}, Stream[float64]{C: &ca, Off: row + 1},
				Stream[float64]{C: &cd, Off: rng.Intn(len(dst.data) - n), Write: true})
			ca.Flush()
			cd.Flush()
		case 9:
			// Batched trace replay over the quartet, with an occasional store
			// beforehand so the replay meets freshly written lines.
			if rng.Intn(2) == 0 {
				arr := [...]*Array[float64]{shX, shY, shM, shC}[rng.Intn(4)]
				arr.Store(p, rng.Intn(len(arr.data)), float64(step))
			}
			var tr []int32
			n := 1 + rng.Intn(40)
			for k := 0; k < n; k++ {
				if rng.Intn(3) == 0 {
					tr = append(tr, int32(^rng.Intn(256)))
				} else {
					tr = append(tr, int32(rng.Intn(len(shX.data))))
				}
			}
			cx, cy, cm, cc := shX.Cursor(p), shY.Cursor(p), shM.Cursor(p), shC.Cursor(p)
			ReplayLoads(tr, &cx, &cy, &cm, &cc)
			cx.Flush()
			cy.Flush()
			cm.Flush()
			cc.Flush()
		case 10:
			if i := rng.Intn(len(shS.data)); rng.Intn(2) == 0 {
				sum += shS.Load(p, i)
			} else {
				shS.StoreRange(p, i, make([]float64, min(1+rng.Intn(40), len(shS.data)-i)))
			}
		case 11:
			// The batch helpers interleave, per element, reads and writes of
			// several arrays: an order that no total shows, only which line a
			// full set of a small cache gives up.
			idx := make([]int32, 1+rng.Intn(24))
			for k := range idx {
				idx[k] = int32(rng.Intn(512))
			}
			vals := make([]float64, 3*len(idx))
			for k := range vals {
				vals[k] = float64(step + k)
			}
			// tgt is the single-array helpers' target: shared (every store
			// takes the slow path for its write record) or private.
			own, fields := priv[p.ID()], []*Array[float64]{shX, shY, shM}
			tgt := [...]*Array[float64]{shA, own}[rng.Intn(2)]
			switch rng.Intn(11) {
			case 0:
				AddIdx(p, shX, idx, vals[:len(idx)])
			case 1:
				AddGather(p, shA, idx, own, rng.Intn(len(own.data)-len(idx)))
			case 2:
				GatherFields(p, fields, idx, vals)
				for _, v := range vals {
					sum += v
				}
			case 3:
				ScatterFields(p, fields, idx, vals)
			case 4:
				CopyFields(p, []*Array[float64]{shA, own}, []*Array[float64]{shX, shY}, idx)
			case 5:
				tgt.GatherIdx(p, idx, vals)
				for _, v := range vals[:len(idx)] {
					sum += v
				}
			case 6:
				tgt.ScatterIdx(p, idx, vals[:len(idx)])
			case 7:
				tgt.FillIdx(p, idx, float64(step))
			case 8:
				// Stage into the private buffer from shared data, or the reverse.
				if rng.Intn(2) == 0 {
					PackIdx(p, own, rng.Intn(len(own.data)-len(idx)), shX, idx)
				} else {
					PackIdx(p, shA, rng.Intn(len(shA.data)-len(idx)), own, idx)
				}
			case 9:
				dsts := fields
				if rng.Intn(2) == 0 {
					dsts = []*Array[float64]{shA, own}
				}
				UnpackFields(p, own, rng.Intn(len(own.data)-len(dsts)*len(idx)), dsts, idx)
			case 10:
				tgt.Store3At(p, rng.Intn(len(tgt.data)-2), float64(step), 1, 2)
			}
		case 12:
			// A flux-shaped ChargeLoop over index lists: per edge (a, b) loads of
			// shA at both ends, then a load and a store of an accumulator at
			// a and at b, the accumulator shared or private. The ends come
			// from one window, so the lists share lines; whether the
			// footprint sits in distinct sets depends on the cache. A third of
			// the calls take the lists of an earlier one that fit the
			// accumulator, so that the footprint memo answers some calls.
			acc := [...]*Array[float64]{shS, priv[p.ID()]}[rng.Intn(2)]
			var ea, eb []int32
			if k := rng.Intn(3 * max(1, len(fluxLists))); k < len(fluxLists) && fluxLists[k].end <= len(acc.data) {
				ea, eb = fluxLists[k].ea, fluxLists[k].eb
			} else {
				n, w := 1+rng.Intn(64), 1+rng.Intn(96)
				base := rng.Intn(len(acc.data) - w)
				ea, eb = make([]int32, n), make([]int32, n)
				for j := range ea {
					ea[j], eb[j] = int32(base+rng.Intn(w)), int32(base+rng.Intn(w))
				}
				fluxLists = append(fluxLists, fluxList{ea, eb, base + w})
			}
			cu, ca := shA.Cursor(p), acc.Cursor(p)
			ChargeLoop(0, len(ea), Stream[float64]{C: &cu, Idx: ea}, Stream[float64]{C: &cu, Idx: eb},
				Stream[float64]{C: &ca, Idx: ea}, Stream[float64]{C: &ca, Idx: ea, Write: true},
				Stream[float64]{C: &ca, Idx: eb}, Stream[float64]{C: &ca, Idx: eb, Write: true})
			cu.Flush()
			ca.Flush()
		}
		// Periodic synchronization point; two of them also end a cycle (the
		// buffer is released with records on its lists and a successor takes
		// over) and cool every cache under the directory.
		if step%257 == 256 {
			res.mergeEpoch(sp, g)
			switch step / 257 {
			case 3:
				shS.Load(p, 0) // an install the release finds still logged
				Release(shS)
				shS = NewShared[float64](sp, 1100)
				placeInterleave(shS)
				if tc.place != nil {
					shS.PlaceByElem(tc.place)
				}
			case 6:
				flushCaches(sp)
			}
		}
	}

	res.snapshot(sp, g)
	res.Checksum = sum
	return res
}

// TestFastPathMatchesReference is the differential test for the optimized
// cost model (DESIGN.md §5.4): the shift/table fast paths in array.go, the
// cursor chains (Load, ChargeLoop over contiguous and
// index streams: the footprint rule, the element loop), every batch
// helper of batch.go on shared and private arrays, the batched
// trace replay (ReplayLoads), and the directory-driven
// coherence merge must be observationally identical to the straightforward
// reference implementations in ref.go — same virtual clocks, same per-phase
// attribution, same counters, same coherence evictions, same merge penalties
// — on randomized traces.
//
// The second machine is where the sharer directory can be wrong: 72 caches
// (processor indices past one machine word) of 32 lines each, so lines are
// silently dropped by LRU and installed again between merges, under lists
// that still name — or no longer name — their cache.
func TestFastPathMatchesReference(t *testing.T) {
	fc := &FootprintCounts{keys: map[fpKey]bool{}}
	audits := AuditFootprints(t)
	for _, tc := range []traceCfg{
		{name: "default", procs: 8, steps: 4000},
		{name: "tiny-caches", procs: 72, cacheBytes: 4096, steps: 12000},
	} {
		for _, seed := range []int64{1, 2, 42, 20260805} {
			footprintTally = fc.tally
			fast := runTrace(t, tc, seed, false)
			footprintTally = nil
			ref := runTrace(t, tc, seed, true)
			if d := fast.diff(ref); d != "" {
				t.Fatalf("%s seed %d: fast path diverged from reference in %s", tc.name, seed, d)
			}
			var evicts uint64
			for _, e := range fast.Evicts {
				evicts += e
			}
			t.Logf("%s seed %d: %d coherence evictions", tc.name, seed, evicts)
			if evicts == 0 {
				t.Errorf("%s seed %d: no coherence eviction", tc.name, seed)
			}
		}
	}
	// Both paths of a ChargeLoop call ran: in the default caches no set
	// receives more than cacheWays of a call's lines, in the tiny ones some
	// do. The memo answered some calls on both models, and the audit found
	// each answer right.
	calls, rule := fc.Calls.Load(), fc.Rule.Load()
	t.Logf("the footprint rule charged %d of %d calls; the memo answered %d on the fast path, %d in all; calls by lines in their fullest set (0–7): %v",
		rule, calls, fc.Hits.Load(), audits.Load(), fc.Histogram())
	if rule == 0 || rule == calls {
		t.Errorf("the footprint rule charged %d of %d calls, want some but not all", rule, calls)
	}
	if fc.Hits.Load() == 0 || audits.Load() == fc.Hits.Load() {
		t.Errorf("the memo answered %d calls on the fast path, %d in all; want some on each model", fc.Hits.Load(), audits.Load())
	}
}

// TestTouchRangeMatchesPerLine pins the bulk-path equivalence specifically:
// a TouchRange over [lo, hi) must be indistinguishable from storing to each
// element's line exactly once in ascending order.
func TestTouchRangeMatchesPerLine(t *testing.T) {
	run := func(bulk bool) (procState, []uint64) {
		sp, _ := space(4)
		g := sim.NewGroup(4)
		a := NewShared[float64](sp, 2048)
		placeInterleave(a)
		p := g.Proc(1)
		if bulk {
			a.TouchRange(p, 37, 1500, true)
		} else {
			l0, l1 := a.lineOf(37), a.lineOf(1499)
			for li := l0; li <= l1; li++ {
				a.Store(p, int(li)*16, 0) // 16 float64 to the 128-byte line
			}
		}
		pen := sp.MergeEpoch()
		for i, d := range pen {
			g.Proc(i).Advance(d)
		}
		return procState{p.Now(), phaseTimes(p), p.Counters}, sp.CohEvictions()
	}
	bulkSt, bulkEv := run(true)
	lineSt, lineEv := run(false)
	if !reflect.DeepEqual(bulkSt, lineSt) || !reflect.DeepEqual(bulkEv, lineEv) {
		t.Fatalf("bulk TouchRange diverged from per-line charging:\nbulk: %+v %v\nline: %+v %v",
			bulkSt, bulkEv, lineSt, lineEv)
	}
}

// replayCase is one ReplayLoads regime for the differential test below.
type replayCase struct {
	name        string
	line, cache int  // LineBytes / CacheBytes overrides (0 = machine default)
	window      int  // leaf loads come from this many consecutive bodies (0 = 48)
	private     bool // private arrays, one processor (the MP/SHMEM replicas)
	mixed       bool // by bound to another processor: the per-access fallback
	wantReorder bool // hits in a non-MRU way must take a large share of loads
}

// replayRegime counts, on the optimized path, how the replayed loads split.
// Every tag movement of a replay is a miss or a hit in a non-MRU way that
// reorders its set; everything else is an MRU hit. TestMain's audit leaves
// the tags, gen included, as the loads charged one by one leave them, so the
// count is the chain's also where the footprint rule charged.
type replayRegime struct {
	loads, reorder, straddle uint64
}

// sameSetsAs skips address space until an array as long as like, allocated in
// sp next, falls line for line in the cache sets of like.
func sameSetsAs[T any](sp *Space, like *Array[T]) {
	c := sp.caches[0]
	aligned := func() bool {
		next := sp.nextBase.Load() >> like.lineShift
		for lo := range uint64(like.lines()) {
			if setBase(c.setBits, c.setMask, next+lo) != setBase(c.setBits, c.setMask, like.baseLine+lo) {
				return false
			}
		}
		return true
	}
	for !aligned() {
		sp.reserve(1)
	}
}

// runReplayCase drives walk-shaped traces through ReplayLoads on a quartet of
// arrays of element type T. One set of cursors replays several traces, and
// between the replays comes everything that moves their lines: per-access
// Load/Store on the quartet's arrays, the same (and ChargeLoop calls) through
// the unflushed cursors, stores through them to shared arrays, loads and
// stores on a fifth array whose lines fall in the sets of x's, and coherence
// merges that invalidate what other processors wrote. TestMain audits every
// footprint charge against the same loads charged one by one.
func runReplayCase[T any](t *testing.T, rc replayCase, seed int64, useRef bool, val func(int) T) (traceResult, replayRegime) {
	t.Helper()
	refModel = useRef
	defer func() { refModel = false }()

	const procs, bodies, ncells = 4, 1024, 128
	cfg := machine.Default(procs)
	cfg.LineBytes = cmp.Or(rc.line, cfg.LineBytes)
	cfg.CacheBytes = cmp.Or(rc.cache, cfg.CacheBytes)
	sp := NewSpace(machine.MustNew(cfg))
	g := sim.NewGroup(procs)
	alloc := func(n int, block bool) *Array[T] {
		if rc.private {
			return NewPrivate[T](sp, 1, n)
		}
		a := NewShared[T](sp, n)
		if block {
			a.PlaceBlock()
		} else {
			placeInterleave(a)
		}
		return a
	}
	x, y, m, cl := alloc(bodies, false), alloc(bodies, true), alloc(bodies, false), alloc(3*ncells, true)
	sameSetsAs(sp, x)
	fifth := alloc(bodies, true)
	arrays := [...]*Array[T]{x, y, m, cl, fifth}

	straddles := func(c int) bool { return cl.lineOf(3*c) != cl.lineOf(3*c+2) }

	window := cmp.Or(rc.window, 48)
	rng := rand.New(rand.NewSource(seed))
	var res traceResult
	var reg replayRegime
	centre := rng.Intn(bodies)
	for step := 0; step < 300; step++ {
		p := g.Proc(1)
		if !rc.private {
			p = g.Proc(rng.Intn(procs))
		}
		// Per-access traffic on the five arrays, through the arrays and, when
		// there are any, through the quartet's cursors.
		access := func(cu []*Cursor[T]) {
			for k := rng.Intn(5); k > 0; k-- {
				w := rng.Intn(5)
				a := arrays[w]
				i := rng.Intn(len(a.data))
				if w != 3 && rng.Intn(2) == 0 {
					i = (centre + rng.Intn(32)) % bodies
				}
				op := rng.Intn(6)
				if cu == nil || w == 4 {
					op %= 2
				}
				switch op {
				case 0:
					a.Load(p, i)
				case 1:
					a.Store(p, i, val(step))
				case 3:
					cu[w].Store(i, val(step))
				case 4:
					ChargeLoop(0, min(1+rng.Intn(20), len(a.data)-i), Stream[T]{C: cu[w], Off: i})
				default:
					cu[w].Load(i)
				}
			}
		}
		access(nil)

		q := p
		if rc.mixed {
			q = g.Proc((p.ID() + 1) % procs)
		}
		cx, cy, cm, cc := x.Cursor(p), y.Cursor(q), m.Cursor(p), cl.Cursor(p)
		cursors := []*Cursor[T]{&cx, &cy, &cm, &cc}
		for rep := 1 + rng.Intn(3); rep > 0; rep-- {
			// A walk-shaped trace: cell reads, each followed by a burst of leaf
			// loads from a slowly drifting window (so lines repeat and alias).
			var tr []int32
			for grp := 1 + rng.Intn(4); grp > 0; grp-- {
				c := rng.Intn(ncells)
				if straddles(c) {
					reg.straddle++
				}
				tr = append(tr, int32(^c))
				for k := rng.Intn(7); k > 0; k-- {
					tr = append(tr, int32((centre+rng.Intn(window))%bodies))
				}
				if rng.Intn(3) == 0 {
					centre = (centre + rng.Intn(2*window)) % bodies
				}
			}
			c := sp.caches[p.ID()]
			moved0 := c.gen - p.LocalMisses - p.RemoteMisses
			ReplayLoads(tr, &cx, &cy, &cm, &cc)
			reg.loads += 3 * uint64(len(tr))
			reg.reorder += c.gen - p.LocalMisses - p.RemoteMisses - moved0
			if !rc.mixed {
				access(cursors)
			}
			if rng.Intn(12) == 0 {
				for _, cu := range cursors {
					cu.Flush()
				}
				res.mergeEpoch(sp, g)
			}
		}
		for _, cu := range cursors {
			cu.Flush()
		}
	}

	res.snapshot(sp, g)
	return res, reg
}

// TestReplayLoadsMatchesReference is the differential test of the trace
// replay and its load footprint (DESIGN.md §5.9) against ref.go, regime by
// regime: cells that straddle a line at two line sizes, elements wider than
// half a line (a cell then spans three lines), caches so small that the x/y/m
// lines of a leaf alias into one set and most loads reorder a non-MRU way,
// private and shared arrays, cursors on two caches (the per-access fallback),
// and a cache set that receives exactly cacheWays lines of a trace or one
// more. Clocks, counters, evictions, merge penalties and the final tags of
// every cache must all be identical.
func TestReplayLoadsMatchesReference(t *testing.T) {
	type wide [12]float64 // 96 bytes: wider than half a 128-byte line
	cases := []replayCase{
		{name: "default"},
		{name: "line64", line: 64},
		{name: "private", private: true},
		// Arrays are page-aligned, so in a cache of a few sets the x, y and m
		// lines of one leaf share a set and take turns in its MRU way.
		{name: "alias-1set", cache: 512, window: 6, private: true, wantReorder: true},
		{name: "alias-2sets", cache: 1024, window: 6, wantReorder: true},
		{name: "alias-line64", line: 64, cache: 1024, window: 4, private: true, wantReorder: true},
		// A few more sets: the three lines of a leaf sit in different sets,
		// while cell and neighbour lines keep evicting them.
		{name: "small-cache", cache: 4096, window: 24},
		{name: "small-cache-line64", line: 64, cache: 4096, window: 24, private: true},
		{name: "mixed-caches", mixed: true},
	}
	check := func(rc replayCase, run func(seed int64, useRef bool) (traceResult, replayRegime)) {
		name := rc.name
		for _, seed := range []int64{1, 7, 20260928} {
			fast, reg := run(seed, false)
			ref, _ := run(seed, true)
			if d := fast.diff(ref); d != "" {
				t.Errorf("%s seed %d: replay diverged from reference in %s", name, seed, d)
			}
			t.Logf("%s seed %d: %d loads, %d reordered, %d straddling cells", name, seed, reg.loads, reg.reorder, reg.straddle)
			if rc.wantReorder && reg.reorder*3 < reg.loads {
				t.Errorf("%s seed %d: only %d of %d loads reordered a non-MRU way", name, seed, reg.reorder, reg.loads)
			}
			if reg.straddle == 0 {
				t.Errorf("%s seed %d: no straddling cell entry", name, seed)
			}
		}
	}
	for _, rc := range cases {
		check(rc, func(seed int64, useRef bool) (traceResult, replayRegime) {
			return runReplayCase(t, rc, seed, useRef, func(i int) float64 { return float64(i) })
		})
	}
	rc := replayCase{name: "wide-elements"}
	check(rc, func(seed int64, useRef bool) (traceResult, replayRegime) {
		return runReplayCase(t, rc, seed, useRef, func(i int) wide { return wide{float64(i)} })
	})

	// The rule at its edge, in a cache of two sets. The arrays are
	// page-aligned, so line lo of each falls in the set of the parity of lo's
	// low three bits: lines 0 and 3 in one set, 1 and 2 in the other. "ways":
	// leaf 0 (line 0 of x, y, m) and cell 0 (cells line 0) put exactly
	// cacheWays lines in the first set, leaf 16 and the straddling cell 5
	// (cells lines 0 and 1) as many in the second, and the repeats load both
	// sets' lines last in another order than first: the charge takes the
	// trace and must reorder. "ways+1": cell 16 (cells line 3) is a fifth line
	// in the first set, and the charge declines to the chain.
	for _, edge := range []struct {
		name    string
		trace   []int32
		fullest int
	}{
		{"ways", []int32{0, ^0, 16, ^5, 0, 16}, cacheWays},
		{"ways+1", []int32{0, ^0, ^16, 0}, cacheWays + 1},
	} {
		var fullest []int
		footprintTally = func(_ fpKey, _ bool, fp footprint) { fullest = append(fullest, int(fp.fullest)) }
		audits := chargeAudits.Load()
		fast := runEdgeCase(edge.trace, false)
		footprintTally = nil
		if d := fast.diff(runEdgeCase(edge.trace, true)); d != "" {
			t.Errorf("%s: replay diverged from reference in %s", edge.name, d)
		}
		if len(fullest) != 2 || fullest[0] != edge.fullest || fullest[1] != edge.fullest {
			t.Errorf("%s: the charges found %v lines in their fullest set, want %d twice", edge.name, fullest, edge.fullest)
		}
		if audited, took := chargeAudits.Load()-audits, edge.fullest <= cacheWays; (audited == 2) != took {
			t.Errorf("%s: the rule charged %d of 2 replays", edge.name, audited)
		}
	}
}

// runEdgeCase replays trace twice on one processor with a cache of two sets,
// with loads before and between the replays that leave lines of the trace's
// sets resident, in another order, and evict some.
func runEdgeCase(trace []int32, useRef bool) traceResult {
	refModel = useRef
	defer func() { refModel = false }()
	cfg := machine.Default(1)
	cfg.CacheBytes = 2 * cacheWays * cfg.LineBytes
	sp := NewSpace(machine.MustNew(cfg))
	g := sim.NewGroup(1)
	p := g.Proc(0)
	x, y, m := NewPrivate[float64](sp, 0, 64), NewPrivate[float64](sp, 0, 64), NewPrivate[float64](sp, 0, 64)
	cl := NewPrivate[float64](sp, 0, 3*32)
	m.Load(p, 0)
	cl.Load(p, 48)
	x.Load(p, 16)
	cx, cy, cm, cc := x.Cursor(p), y.Cursor(p), m.Cursor(p), cl.Cursor(p)
	for _, between := range []func(){func() { cl.Load(p, 50); y.Load(p, 31) }, func() {}} {
		ReplayLoads(trace, &cx, &cy, &cm, &cc)
		for _, cu := range []*Cursor[float64]{&cx, &cy, &cm, &cc} {
			cu.Flush()
		}
		between()
	}
	var res traceResult
	res.snapshot(sp, g)
	return res
}

// With the cells array also a leaf array a line has two keys, which the load
// footprint cannot tell apart: the replay must fall back to charging entry by
// entry.
// Leaf 0 and cell 0 share line 0 of the one array; a load on a second array
// placed in its sets takes the line off the MRU way between two replays.
func TestReplayWithCellsAlsoALeafArray(t *testing.T) {
	run := func(useRef bool) traceResult {
		refModel = useRef
		defer func() { refModel = false }()
		sp, _ := space(1)
		g := sim.NewGroup(1)
		p := g.Proc(0)
		a := NewPrivate[float64](sp, 0, 64)
		sameSetsAs(sp, a)
		other := NewPrivate[float64](sp, 0, 64)
		cu := a.Cursor(p)
		for range 2 {
			ReplayLoads([]int32{0, ^0, 0, ^0}, &cu, &cu, &cu, &cu)
			other.Load(p, 0)
		}
		cu.Flush()
		var res traceResult
		res.snapshot(sp, g)
		return res
	}
	if d := run(false).diff(run(true)); d != "" {
		t.Fatalf("fast path and reference differ in %s", d)
	}
}

// helperEnv is what one element-loop case runs on: two shared arrays, placed
// differently, and one private array per processor, all of helperLen elements.
type helperEnv[T any] struct {
	sh   [2]*Array[T]
	priv []*Array[T]
	out  []T // what the gathers returned, in call order
}

const helperLen = 700

// tgt picks a shared array or p's private one.
func (e *helperEnv[T]) tgt(p *sim.Proc, rng *rand.Rand) *Array[T] {
	if k := rng.Intn(3); k < 2 {
		return e.sh[k]
	}
	return e.priv[p.ID()]
}

// fields is the mixed field set the *Fields helpers move: both shared arrays
// and p's private one.
func (e *helperEnv[T]) fields(p *sim.Proc) []*Array[T] {
	return []*Array[T]{e.sh[0], e.priv[p.ID()], e.sh[1]}
}

// helperIdx is 1 to 24 random indices, repeats allowed, half the time from a
// window of 64 elements (lines repeat within the call).
func helperIdx(rng *rand.Rand) []int32 {
	lo, n := 0, helperLen
	if rng.Intn(2) == 0 {
		lo, n = rng.Intn(helperLen-64), 64
	}
	idx := make([]int32, 1+rng.Intn(24))
	for k := range idx {
		idx[k] = int32(lo + rng.Intn(n))
	}
	return idx
}

// helperVals is n random values.
func helperVals(rng *rand.Rand, n int) []float64 {
	vals := make([]float64, n)
	for k := range vals {
		vals[k] = float64(rng.Intn(1000))
	}
	return vals
}

// helperCall is one step of a case: a call of the batch helper when bulk,
// otherwise the Array.Load/Array.Store loop its doc comment says it replaces.
// Both draw the same random numbers.
type helperCall[T any] func(e *helperEnv[T], p *sim.Proc, rng *rand.Rand, bulk bool)

// runHelperCase makes 300 seeded steps of call on four processors (two nodes)
// with caches of 16 lines — the arrays' lines share sets, so the order of a
// step's accesses shows in which line a full set gives up — and a coherence
// merge every 40, and returns what is observable, the write-sets before every
// merge and the arrays' contents included.
func runHelperCase[T any](call helperCall[T], bulk, useRef bool) traceResult {
	refModel = useRef
	defer func() { refModel = false }()
	const procs = 4
	cfg := machine.Default(procs)
	cfg.CacheBytes = 2048
	sp := NewSpace(machine.MustNew(cfg))
	g := sim.NewGroup(procs)
	e := &helperEnv[T]{}
	for k := range e.sh {
		e.sh[k] = NewShared[T](sp, helperLen)
	}
	placeInterleave(e.sh[0])
	e.sh[1].PlaceBlock()
	for q := range procs {
		e.priv = append(e.priv, NewPrivate[T](sp, q, helperLen))
	}
	var res traceResult
	logWrites := func() {
		for _, a := range e.sh {
			for _, wl := range a.writeLines {
				res.Writes = append(res.Writes, slices.Clone(wl))
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	phases := []sim.Phase{sim.PhaseCompute, sim.PhaseMark, sim.PhaseRemap}
	for step := range 300 {
		p := g.Proc(rng.Intn(procs))
		if rng.Intn(8) == 0 {
			p.SetPhase(phases[rng.Intn(len(phases))])
		}
		// A few loads first, so that a helper meets lines in the MRU way.
		for k := rng.Intn(4); k > 0; k-- {
			e.tgt(p, rng).Load(p, rng.Intn(helperLen))
		}
		call(e, p, rng, bulk)
		if step%40 == 39 {
			logWrites()
			res.mergeEpoch(sp, g)
		}
	}
	logWrites()
	data := [][]T{e.out}
	for _, a := range append(e.sh[:], e.priv...) {
		data = append(data, slices.Clone(a.data))
	}
	res.Data = data
	res.snapshot(sp, g)
	return res
}

// storeRangeCall is StoreRange, or the Store loop it replaces, over an odd span.
func storeRangeCall[T any](e *helperEnv[T], p *sim.Proc, rng *rand.Rand, bulk bool) {
	a, lo := e.tgt(p, rng), rng.Intn(helperLen)
	vals := make([]T, rng.Intn(min(60, helperLen-lo)+1))
	if bulk {
		a.StoreRange(p, lo, vals)
		return
	}
	for k, v := range vals {
		a.Store(p, lo+k, v)
	}
}

// TestHelpersMatchElementLoops checks every batch helper against the element
// loop it replaces: same clocks, per-phase times, counters, write-sets, merge
// penalties, evictions, cache tags and array contents, on the same seeded
// inputs, the loop and the helper each on the fast path and on the reference
// model. The randomized differential compares the fast path with the
// reference model, which share each helper's one loop; an access-order bug in
// that loop shows only here.
//
// StoreRange counts every access of a span that is not a line's miss as a
// hit. That is the element loop exactly, whatever the element size: elements
// that divide a line, elements that straddle lines (24 and 96 bytes in 128),
// and elements wider than a line, which take the per-element path.
func TestHelpersMatchElementLoops(t *testing.T) {
	type f64 = helperEnv[float64]
	cases := []struct {
		name string
		call helperCall[float64]
	}{
		{"GatherIdx", func(e *f64, p *sim.Proc, rng *rand.Rand, bulk bool) {
			a, idx := e.tgt(p, rng), helperIdx(rng)
			out := make([]float64, len(idx))
			if bulk {
				a.GatherIdx(p, idx, out)
			} else {
				for k, i := range idx {
					out[k] = a.Load(p, int(i))
				}
			}
			e.out = append(e.out, out...)
		}},
		{"ScatterIdx", func(e *f64, p *sim.Proc, rng *rand.Rand, bulk bool) {
			a, idx := e.tgt(p, rng), helperIdx(rng)
			vals := helperVals(rng, len(idx))
			if bulk {
				a.ScatterIdx(p, idx, vals)
				return
			}
			for k, i := range idx {
				a.Store(p, int(i), vals[k])
			}
		}},
		{"FillIdx", func(e *f64, p *sim.Proc, rng *rand.Rand, bulk bool) {
			a, idx, v := e.tgt(p, rng), helperIdx(rng), float64(rng.Intn(1000))
			if bulk {
				a.FillIdx(p, idx, v)
				return
			}
			for _, i := range idx {
				a.Store(p, int(i), v)
			}
		}},
		{"AddIdx", func(e *f64, p *sim.Proc, rng *rand.Rand, bulk bool) {
			a, idx := e.tgt(p, rng), helperIdx(rng)
			vals := helperVals(rng, len(idx))
			if bulk {
				AddIdx(p, a, idx, vals)
				return
			}
			for k, i := range idx {
				a.Store(p, int(i), a.Load(p, int(i))+vals[k])
			}
		}},
		{"AddGather", func(e *f64, p *sim.Proc, rng *rand.Rand, bulk bool) {
			dst, src, idx := e.tgt(p, rng), e.tgt(p, rng), helperIdx(rng)
			off := rng.Intn(helperLen - len(idx))
			if bulk {
				AddGather(p, dst, idx, src, off)
				return
			}
			for k, i := range idx {
				dst.Store(p, int(i), dst.Load(p, int(i))+src.Load(p, off+k))
			}
		}},
		{"PackIdx", func(e *f64, p *sim.Proc, rng *rand.Rand, bulk bool) {
			dst, src, idx := e.tgt(p, rng), e.tgt(p, rng), helperIdx(rng)
			off := rng.Intn(helperLen - len(idx))
			if bulk {
				PackIdx(p, dst, off, src, idx)
				return
			}
			for k, i := range idx {
				dst.Store(p, off+k, src.Load(p, int(i)))
			}
		}},
		{"GatherFields", func(e *f64, p *sim.Proc, rng *rand.Rand, bulk bool) {
			srcs, idx := e.fields(p), helperIdx(rng)
			out := make([]float64, len(srcs)*len(idx))
			if bulk {
				GatherFields(p, srcs, idx, out)
			} else {
				for k, i := range idx {
					for f, a := range srcs {
						out[len(srcs)*k+f] = a.Load(p, int(i))
					}
				}
			}
			e.out = append(e.out, out...)
		}},
		{"ScatterFields", func(e *f64, p *sim.Proc, rng *rand.Rand, bulk bool) {
			dsts, idx := e.fields(p), helperIdx(rng)
			vals := helperVals(rng, len(dsts)*len(idx))
			if bulk {
				ScatterFields(p, dsts, idx, vals)
				return
			}
			for k, i := range idx {
				for f, a := range dsts {
					a.Store(p, int(i), vals[len(dsts)*k+f])
				}
			}
		}},
		{"CopyFields", func(e *f64, p *sim.Proc, rng *rand.Rand, bulk bool) {
			// sh[0] is both a destination and, a field later, a source.
			dsts, srcs, idx := e.fields(p)[:2], e.fields(p)[1:], helperIdx(rng)
			srcs[0] = e.sh[0]
			if bulk {
				CopyFields(p, dsts, srcs, idx)
				return
			}
			for _, i := range idx {
				for f, s := range srcs {
					dsts[f].Store(p, int(i), s.Load(p, int(i)))
				}
			}
		}},
		{"UnpackFields", func(e *f64, p *sim.Proc, rng *rand.Rand, bulk bool) {
			src, dsts, idx := e.tgt(p, rng), e.fields(p), helperIdx(rng)
			off := rng.Intn(helperLen - len(dsts)*len(idx))
			if bulk {
				UnpackFields(p, src, off, dsts, idx)
				return
			}
			for k, i := range idx {
				for f, a := range dsts {
					a.Store(p, int(i), src.Load(p, off+len(dsts)*k+f))
				}
			}
		}},
		{"Store3At", func(e *f64, p *sim.Proc, rng *rand.Rand, bulk bool) {
			// Three calls, so that some straddle a line.
			a := e.tgt(p, rng)
			for range 3 {
				i, v := rng.Intn(helperLen-2), float64(rng.Intn(1000))
				if bulk {
					a.Store3At(p, i, v, v+1, v+2)
					continue
				}
				a.Store(p, i, v)
				a.Store(p, i+1, v+1)
				a.Store(p, i+2, v+2)
			}
		}},
		{"StoreRange/8-byte elements", storeRangeCall[float64]},
	}
	check := func(t *testing.T, run func(bulk, useRef bool) traceResult) {
		want := run(false, true)
		for _, v := range []struct {
			name         string
			bulk, useRef bool
		}{{"element loop", false, false}, {"helper", true, false}, {"helper on the reference model", true, true}} {
			if d := run(v.bulk, v.useRef).diff(want); d != "" {
				t.Errorf("%s: differs from the element loop on the reference model in %s", v.name, d)
			}
		}
		var c sim.Counters
		for _, ps := range want.Procs {
			c.CacheHits += ps.Counters.CacheHits
			c.LocalMisses += ps.Counters.LocalMisses
			c.RemoteMisses += ps.Counters.RemoteMisses
		}
		if c.CacheHits == 0 || c.LocalMisses == 0 || c.RemoteMisses == 0 {
			t.Errorf("want hits, local and remote misses, got %+v", c)
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { check(t, bind(c.call)) })
	}
	t.Run("StoreRange/24-byte elements", func(t *testing.T) { check(t, bind(storeRangeCall[[3]float64])) })
	t.Run("StoreRange/96-byte elements", func(t *testing.T) { check(t, bind(storeRangeCall[[12]float64])) })
	t.Run("StoreRange/160-byte elements", func(t *testing.T) { check(t, bind(storeRangeCall[[20]float64])) })
}

// bind is runHelperCase of call as a function of the two switches.
func bind[T any](call helperCall[T]) func(bulk, useRef bool) traceResult {
	return func(bulk, useRef bool) traceResult { return runHelperCase(call, bulk, useRef) }
}
