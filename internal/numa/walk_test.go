package numa

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"o2k/internal/machine"
	"o2k/internal/sim"
)

// walkEnv is what one ChargeLoop case runs on: helperEnv's arrays, the two
// shared ones placed so that their lines fall line for line in the same
// cache sets, and the processors.
type walkEnv[T any] struct {
	helperEnv[T]
	g *sim.Group
}

// walkSpec is one stream of a call: the processor whose cursor charges it,
// the array, the offset, whether it stores, and its index list, if it has one.
type walkSpec[T any] struct {
	p     *sim.Proc
	a     *Array[T]
	off   int
	write bool
	idx   []int32
}

// walkCase draws the streams of one call of n steps on processor p; every
// offset leaves room for n elements.
type walkCase[T any] func(e *walkEnv[T], p *sim.Proc, rng *rand.Rand, n int) []walkSpec[T]

// walkOff is a random offset with room for n elements after it.
func walkOff(rng *rand.Rand, n int) int { return rng.Intn(helperLen - n) }

// walkIdx is an index list of n elements drawn, repeats allowed, from a window
// of 1 to 160 elements (up to eleven lines) at base.
func walkIdx(rng *rand.Rand, n, base int) []int32 {
	w := 1 + rng.Intn(min(160, helperLen-base))
	idx := make([]int32, n)
	for j := range idx {
		idx[j] = int32(base + rng.Intn(w))
	}
	return idx
}

// walkCall charges the streams of specs over steps [lo, hi): with ChargeLoop
// when walk, otherwise by the Cursor.Load/Store loop ChargeLoop's doc comment
// names. Streams on one array and processor share a cursor, as the stencil's
// do; the loop stores zeros, so no data moves in either form.
func walkCall[T any](specs []walkSpec[T], lo, hi int, walk bool) {
	var cursors []*Cursor[T]
	streams := make([]Stream[T], len(specs))
	for k, s := range specs {
		i := slices.IndexFunc(cursors, func(cu *Cursor[T]) bool { return cu.a == s.a && cu.p == s.p })
		if i < 0 {
			cu := s.a.Cursor(s.p)
			i, cursors = len(cursors), append(cursors, &cu)
		}
		streams[k] = Stream[T]{C: cursors[i], Off: s.off, Idx: s.idx, Write: s.write}
	}
	if walk {
		ChargeLoop(lo, hi, streams...)
	} else {
		var zero T
		for j := lo; j < hi; j++ {
			for _, s := range streams {
				e := s.Off + j
				if s.Idx != nil {
					e = s.Off + int(s.Idx[j])
				}
				if s.Write {
					s.C.Store(e, zero)
				} else {
					s.C.Load(e)
				}
			}
		}
	}
	for _, cu := range cursors {
		cu.Flush()
	}
}

// runWalkCase makes 200 seeded steps of call on four processors (two nodes)
// with caches of cacheBytes. Each step makes a few warm loads, a call of 1 to
// 64 steps, and half the time a coherence merge and the same call again, a
// quarter of the time the same call again in the same epoch; every 25 steps
// end with a merge. It returns what is observable: the write-sets before every
// merge, and the sharer list of every line of the shared arrays as Data; and,
// in Rule, how many ChargeLoop calls with an index stream it made and how many
// of them the footprint rule charged.
func runWalkCase[T any](call walkCase[T], cacheBytes int, walk, useRef bool) traceResult {
	refModel = useRef
	fc, stop := countFootprints()
	defer func() { refModel = false; stop() }()
	const procs = 4
	cfg := machine.Default(procs)
	cfg.CacheBytes = cacheBytes
	sp := NewSpace(machine.MustNew(cfg))
	e := &walkEnv[T]{g: sim.NewGroup(procs)}
	e.sh[0] = NewShared[T](sp, helperLen)
	sameSetsAs(sp, e.sh[0])
	e.sh[1] = NewShared[T](sp, helperLen)
	placeInterleave(e.sh[0])
	e.sh[1].PlaceBlock()
	for q := range procs {
		e.priv = append(e.priv, NewPrivate[T](sp, q, helperLen))
	}
	var res traceResult
	merge := func() {
		for _, a := range e.sh {
			for _, wl := range a.writeLines {
				res.Writes = append(res.Writes, slices.Clone(wl))
			}
		}
		res.mergeEpoch(sp, e.g)
	}
	rng := rand.New(rand.NewSource(11))
	phases := []sim.Phase{sim.PhaseCompute, sim.PhaseMark, sim.PhaseRemap}
	for step := range 200 {
		p := e.g.Proc(rng.Intn(procs))
		if rng.Intn(8) == 0 {
			p.SetPhase(phases[rng.Intn(len(phases))])
		}
		for k := rng.Intn(4); k > 0; k-- {
			e.tgt(p, rng).Load(p, rng.Intn(helperLen))
		}
		lo := rng.Intn(8)
		n := 1 + rng.Intn(64)
		specs := call(e, p, rng, lo+n)
		walkCall(specs, lo, lo+n, walk)
		switch rng.Intn(4) {
		case 0, 1:
			merge()
			walkCall(specs, lo, lo+n, walk)
		case 2:
			walkCall(specs, lo, lo+n, walk)
		}
		if step%25 == 24 {
			merge()
		}
	}
	merge()
	var sharers [][]int32
	for _, a := range e.sh {
		for li := range a.dirHead {
			sharers = append(sharers, sharersOf(sp, a.dirHead[li]))
		}
	}
	res.Data = sharers
	res.snapshot(sp, e.g)
	res.Rule = [2]int64{fc.Calls.Load(), fc.Rule.Load()}
	return res
}

// TestChargeLoopMatchesElementLoop checks the walk against the Cursor loop it
// charges like, in the style of TestHelpersMatchElementLoops: on the fast path
// and on the reference model, ChargeLoop leaves the clocks, per-phase times,
// counters, write-sets, merge penalties, evictions, cache tags and sharer
// lists of its element loop. The contiguous cases: one to five streams, two of
// them on one line as the stencil's j-1 and j+1 are; offsets anywhere in a
// line; caches of four sets and of one, where streams evict each other
// mid-run; two streams whose lines share every set; streams of two
// processors, and 24-byte elements, which take the loop without runs. Every
// call is half the time repeated after a coherence merge, so a shared store
// meets lines it wrote and that the merge took off its write-set, and a
// quarter of the time repeated in the same epoch, where they are still on it.
//
// The index cases run the mesh's loops and their neighbours in a cache of 64
// sets: the flux's six streams over two lists drawn with repeats from one
// window, so that the lists share lines; the vertex update, whose store to a
// shared field records its lines. Their footprints sometimes sit in distinct
// sets, so the footprint rule charges the call, and sometimes not, so the
// element loop (chargeEach) does; the lines the rule charges meet the warm
// loads' misses and hits in non-MRU ways first. Four more never take the
// rule: index streams beside a contiguous one, arrays whose lines share every
// set, a 1-set cache, and streams of two processors. Every call the footprint
// memo answers — the repeated ones — is audited: its footprint is found anew
// and must be the remembered one.
func TestChargeLoopMatchesElementLoop(t *testing.T) {
	type f64 = walkEnv[float64]
	type S = walkSpec[float64]
	stencil := func(e *f64, p *sim.Proc, rng *rand.Rand, n int) []S {
		src, dst := e.tgt(p, rng), e.tgt(p, rng)
		up, row, down := walkOff(rng, n), 1+rng.Intn(helperLen-n-2), walkOff(rng, n)
		return []S{{p, src, up, false, nil}, {p, src, down, false, nil}, {p, src, row - 1, false, nil}, {p, src, row + 1, false, nil},
			{p, dst, walkOff(rng, n), true, nil}}
	}
	// flux is the mesh's edge loop on u and acc: per edge (a, b) the loads
	// u[a] u[b] acc[a], the store acc[a], the load acc[b], the store acc[b].
	flux := func(p *sim.Proc, u, acc *Array[float64], ea, eb []int32) []S {
		return []S{{p, u, 0, false, ea}, {p, u, 0, false, eb}, {p, acc, 0, false, ea}, {p, acc, 0, true, ea},
			{p, acc, 0, false, eb}, {p, acc, 0, true, eb}}
	}
	fluxCase := func(u, acc func(e *f64, p *sim.Proc, rng *rand.Rand) *Array[float64]) walkCase[float64] {
		return func(e *f64, p *sim.Proc, rng *rand.Rand, n int) []S {
			base := rng.Intn(helperLen - 32)
			return flux(p, u(e, p, rng), acc(e, p, rng), walkIdx(rng, n, base), walkIdx(rng, n, base))
		}
	}
	tgt := func(e *f64, p *sim.Proc, rng *rand.Rand) *Array[float64] { return e.tgt(p, rng) }
	const sets64 = 64 * cacheWays * 128
	// rule: whether the footprint rule must charge some of the calls with an
	// index stream ("some": some, but not all), or none.
	cases := []struct {
		name  string
		cache int // bytes; 0 = four sets of four 128-byte lines
		rule  string
		call  walkCase[float64]
	}{
		{"1 stream", 0, "", func(e *f64, p *sim.Proc, rng *rand.Rand, n int) []S {
			return []S{{p, e.tgt(p, rng), walkOff(rng, n), rng.Intn(2) == 0, nil}}
		}},
		{"2 streams on one line", 0, "", func(e *f64, p *sim.Proc, rng *rand.Rand, n int) []S {
			a, o := e.tgt(p, rng), rng.Intn(helperLen-n-2)
			return []S{{p, a, o, false, nil}, {p, a, o + 2, false, nil}}
		}},
		{"3 streams, a store beside a load", 0, "", func(e *f64, p *sim.Proc, rng *rand.Rand, n int) []S {
			a, o := e.tgt(p, rng), rng.Intn(helperLen-n-1)
			return []S{{p, a, o, false, nil}, {p, e.tgt(p, rng), walkOff(rng, n), false, nil}, {p, a, o + 1, true, nil}}
		}},
		{"4 streams", 0, "", func(e *f64, p *sim.Proc, rng *rand.Rand, n int) []S {
			specs := make([]S, 4)
			for k := range specs {
				specs[k] = S{p, e.tgt(p, rng), walkOff(rng, n), rng.Intn(3) == 0, nil}
			}
			return specs
		}},
		{"5 streams: a stencil row", 0, "", stencil},
		{"5 streams: a stencil row in a 1-set cache", cacheWays * 128, "", stencil},
		{"2 streams in one set", 0, "", func(e *f64, p *sim.Proc, rng *rand.Rand, n int) []S {
			o := walkOff(rng, n)
			return []S{{p, e.sh[0], o, rng.Intn(2) == 0, nil}, {p, e.sh[1], o, rng.Intn(2) == 0, nil}}
		}},
		{"2 processors", 0, "", func(e *f64, p *sim.Proc, rng *rand.Rand, n int) []S {
			q := e.g.Proc((p.ID() + 1 + rng.Intn(3)) % 4)
			o := walkOff(rng, n)
			return []S{{p, e.sh[0], o, false, nil}, {q, e.sh[0], o, false, nil}, {p, e.sh[1], walkOff(rng, n), true, nil}}
		}},
		{"index: the edge flux", sets64, "some", fluxCase(tgt, tgt)},
		{"index: the vertex update of a shared field", sets64, "some", func(e *f64, p *sim.Proc, rng *rand.Rand, n int) []S {
			u, acc, owned := e.sh[rng.Intn(2)], e.tgt(p, rng), walkIdx(rng, n, rng.Intn(helperLen-32))
			return []S{{p, u, 0, false, owned}, {p, acc, 0, false, owned}, {p, u, 0, true, owned}}
		}},
		{"index: beside a contiguous stream", sets64, "none", func(e *f64, p *sim.Proc, rng *rand.Rand, n int) []S {
			a := e.tgt(p, rng)
			return []S{{p, a, 0, false, walkIdx(rng, n, rng.Intn(helperLen-32))}, {p, e.tgt(p, rng), walkOff(rng, n), rng.Intn(2) == 0, nil},
				{p, a, 0, rng.Intn(2) == 0, walkIdx(rng, n, rng.Intn(helperLen-32))}}
		}},
		{"index: the edge flux on arrays in one set", sets64, "none", fluxCase(
			func(e *f64, _ *sim.Proc, _ *rand.Rand) *Array[float64] { return e.sh[0] },
			func(e *f64, _ *sim.Proc, _ *rand.Rand) *Array[float64] { return e.sh[1] })},
		{"index: the edge flux in a 1-set cache", cacheWays * 128, "none", fluxCase(tgt, tgt)},
		{"index: 2 processors", sets64, "none", func(e *f64, p *sim.Proc, rng *rand.Rand, n int) []S {
			q, owned := e.g.Proc((p.ID()+1+rng.Intn(3))%4), walkIdx(rng, n, rng.Intn(helperLen-32))
			return []S{{p, e.sh[0], 0, false, owned}, {q, e.sh[0], 0, false, owned}, {p, e.sh[1], 0, true, owned}}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			audits := AuditFootprints(t)
			res := checkWalk(t, func(walk, useRef bool) traceResult {
				return runWalkCase(c.call, cmp.Or(c.cache, 16*128), walk, useRef)
			})
			calls, rule := res.Rule[0], res.Rule[1]
			t.Logf("the footprint rule charged %d of %d calls with an index stream; the memo answered %d", rule, calls, audits.Load())
			switch {
			case c.rule == "" && calls != 0, c.rule != "" && calls == 0:
				t.Errorf("%d calls with an index stream", calls)
			case c.rule != "" && audits.Load() == 0:
				t.Error("the memo answered no call")
			case c.rule == "some" && (rule == 0 || rule == calls):
				t.Errorf("the footprint rule charged %d of %d calls, want some but not all", rule, calls)
			case c.rule == "none" && rule != 0:
				t.Errorf("the footprint rule charged %d of %d calls, want none", rule, calls)
			}
		})
	}
	t.Run("24-byte elements", func(t *testing.T) {
		type w24 = [3]float64
		checkWalk(t, func(walk, useRef bool) traceResult {
			return runWalkCase(func(e *walkEnv[w24], p *sim.Proc, rng *rand.Rand, n int) []walkSpec[w24] {
				a, o := e.tgt(p, rng), rng.Intn(helperLen-n-1)
				return []walkSpec[w24]{{p, a, o, false, nil}, {p, a, o + 1, rng.Intn(2) == 0, nil}, {p, e.tgt(p, rng), walkOff(rng, n), true, nil}}
			}, 16*128, walk, useRef)
		})
	})
}

// checkWalk compares the walk with its element loop on each model, and the two
// models' element loops in everything but the sharer lists, which only the
// fast path keeps. It returns the walk's run on the fast path.
func checkWalk(t *testing.T, run func(walk, useRef bool) traceResult) traceResult {
	t.Helper()
	loops, walks := map[bool]traceResult{}, map[bool]traceResult{}
	for _, useRef := range []bool{false, true} {
		loops[useRef], walks[useRef] = run(false, useRef), run(true, useRef)
		if d := walks[useRef].diff(loops[useRef]); d != "" {
			t.Errorf("refModel=%v: the walk differs from its element loop in %s", useRef, d)
		}
	}
	fast, ref := loops[false], loops[true]
	fast.Data, ref.Data = nil, nil
	if d := fast.diff(ref); d != "" {
		t.Errorf("the element loop differs between the models in %s", d)
	}
	var c sim.Counters
	for _, ps := range fast.Procs {
		c.CacheHits += ps.Counters.CacheHits
		c.LocalMisses += ps.Counters.LocalMisses
		c.RemoteMisses += ps.Counters.RemoteMisses
	}
	if c.CacheHits == 0 || c.LocalMisses == 0 || c.RemoteMisses == 0 {
		t.Errorf("want hits, local and remote misses, got %+v", c)
	}
	return walks[false]
}

// TestFootprintMemo scripts the footprint memo's keys on one space with a
// cache of 64 sets. A repeated call is answered by the memo; the same list on
// another array, through another processor's cache, over another [lo, hi), at
// another offset or loaded where it was stored is a call of its own, and so is the 2-processor shape beside the one-cache
// call of the same lists. A declined call stays declined. Every answer is
// audited, and a list modified in place between two calls — what the contract
// on Stream forbids — is what the audit catches.
func TestFootprintMemo(t *testing.T) {
	const procs = 4
	cfg := machine.Default(procs)
	cfg.CacheBytes = 64 * cacheWays * 128
	sp := NewSpace(machine.MustNew(cfg))
	g := sim.NewGroup(procs)
	sh0 := NewShared[float64](sp, helperLen)
	sameSetsAs(sp, sh0)
	sh1 := NewShared[float64](sp, helperLen) // line for line in the sets of sh0
	p, q := g.Proc(0), g.Proc(1)
	owned := make([]int32, 48)
	for j := range owned {
		owned[j] = int32(100 + (j*7)%64) // four lines, in four sets
	}
	type S = walkSpec[float64]
	update := func(p *sim.Proc, a *Array[float64], idx []int32) []S {
		return []S{{p, a, 0, false, idx}, {p, a, 0, true, idx}}
	}
	var hit, took bool
	footprintTally = func(_ fpKey, h, tk bool) { hit, took = h, tk }
	defer func() { footprintTally = nil }()
	differ := 0
	auditFootprints(func(memo, fresh footprint) { differ++ })
	defer func() { footprintAudit = nil }()
	steps := []struct {
		name      string
		specs     []S
		lo, hi    int
		hit, took bool
	}{
		{"a first call", update(p, sh0, owned), 0, 48, false, true},
		{"the same call again", update(p, sh0, owned), 0, 48, true, true},
		{"the list on another array", update(p, sh1, owned), 0, 48, false, true},
		{"through another processor's cache", update(q, sh0, owned), 0, 48, false, true},
		{"over another [lo, hi)", update(p, sh0, owned), 8, 48, false, true},
		{"at another offset", []S{{p, sh0, 16, false, owned}, {p, sh0, 16, true, owned}}, 0, 48, false, true},
		{"loading where it stored", []S{{p, sh0, 0, false, owned}, {p, sh0, 0, false, owned}}, 0, 48, false, true},
		{"the first call once more", update(p, sh0, owned), 0, 48, true, true},
		{"one cache", []S{{p, sh0, 0, false, owned}, {p, sh0, 0, false, owned}, {p, sh0, 0, true, owned}}, 0, 48, false, true},
		{"2 processors", []S{{p, sh0, 0, false, owned}, {q, sh0, 0, false, owned}, {p, sh0, 0, true, owned}}, 0, 48, false, false},
		{"2 processors again", []S{{p, sh0, 0, false, owned}, {q, sh0, 0, false, owned}, {p, sh0, 0, true, owned}}, 0, 48, true, false},
		{"one cache again", []S{{p, sh0, 0, false, owned}, {p, sh0, 0, false, owned}, {p, sh0, 0, true, owned}}, 0, 48, true, true},
		{"two arrays in the same sets", []S{{p, sh0, 0, false, owned}, {p, sh1, 0, true, owned}}, 0, 48, false, false},
		{"declined again", []S{{p, sh0, 0, false, owned}, {p, sh1, 0, true, owned}}, 0, 48, true, false},
	}
	for _, s := range steps {
		walkCall(s.specs, s.lo, s.hi, true)
		if hit != s.hit || took != s.took {
			t.Errorf("%s: memo hit %v, rule %v; want %v, %v", s.name, hit, took, s.hit, s.took)
		}
	}
	if differ != 0 {
		t.Fatalf("the audit found %d remembered footprints wrong", differ)
	}
	// The contract's negative test: a list that changes in place keeps its key,
	// so the memo answers with the footprint of what it was.
	moved := slices.Clone(owned)
	walkCall(update(p, sh0, moved), 0, 48, true)
	moved[5] = helperLen - 1 // a line the list did not reach
	walkCall(update(p, sh0, moved), 0, 48, true)
	if !hit || differ != 1 {
		t.Errorf("a list modified in place: memo hit %v, the audit found %d differences; want a hit and 1", hit, differ)
	}
}
