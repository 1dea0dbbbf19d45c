package numa

import (
	"cmp"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"o2k/internal/machine"
	"o2k/internal/sim"
)

// walkEnv is what one ChargeLoop case runs on: helperEnv's arrays, the two
// shared ones placed so that their lines fall line for line in the same
// cache sets; cacheWays+1 more shared arrays whose lines all fall line for
// line in one another's sets; and the processors.
type walkEnv[T any] struct {
	helperEnv[T]
	same [cacheWays + 1]*Array[T]
	g    *sim.Group
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
// when chargeLoop, otherwise by the Cursor.Load/Store loop ChargeLoop's doc
// comment names. Streams on one array and processor share a cursor, as the
// stencil's do; the loop stores zeros, so no data moves in either form.
func walkCall[T any](specs []walkSpec[T], lo, hi int, chargeLoop bool) {
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
	if chargeLoop {
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
// in Rule, how many ChargeLoop calls it made, how many of them the footprint
// rule charged, and how many of those it charged with a last list in another
// order than the first accesses of its lines.
func runWalkCase[T any](call walkCase[T], cacheBytes int, chargeLoop, useRef bool) traceResult {
	refModel = useRef
	var rule [3]int64
	footprintTally = func(key fpKey, _ bool, fp footprint) {
		rule[0]++
		if !fp.took {
			return
		}
		rule[1]++
		// The lines of the last list, and the same lines by first access.
		line := func(ev fpEvent) uint64 { return key.streams[ev.k].base + uint64(ev.li) }
		var last, first []uint64
		for _, ev := range fp.last {
			last = append(last, line(ev))
		}
		for _, ev := range fp.events {
			if !ev.record && slices.Contains(last, line(ev)) {
				first = append(first, line(ev))
			}
		}
		if !slices.Equal(first, last) {
			rule[2]++
		}
	}
	defer func() { refModel = false; footprintTally = nil }()
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
	for k := range e.same {
		if k > 0 {
			sameSetsAs(sp, e.same[k-1])
		}
		e.same[k] = NewShared[T](sp, helperLen)
		placeInterleave(e.same[k])
	}
	shared := append(e.sh[:], e.same[:]...)
	var res traceResult
	merge := func() {
		for _, a := range shared {
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
		walkCall(specs, lo, lo+n, chargeLoop)
		switch rng.Intn(4) {
		case 0, 1:
			merge()
			walkCall(specs, lo, lo+n, chargeLoop)
		case 2:
			walkCall(specs, lo, lo+n, chargeLoop)
		}
		if step%25 == 24 {
			merge()
		}
	}
	merge()
	var sharers [][]int32
	for _, a := range shared {
		for li := range a.dirHead {
			sharers = append(sharers, sharersOf(sp, a.dirHead[li]))
		}
	}
	res.Data = sharers
	res.snapshot(sp, e.g)
	res.Rule = rule
	return res
}

// TestChargeLoopMatchesElementLoop checks ChargeLoop against the Cursor loop
// it charges like, in the style of TestHelpersMatchElementLoops: on the fast
// path and on the reference model, ChargeLoop leaves the clocks, per-phase
// times, counters, write-sets, merge penalties, evictions, cache tags and
// sharer lists of its element loop. The contiguous cases: one to five streams,
// two of them on one line as the stencil's j-1 and j+1 are; offsets anywhere
// in a line; caches of four sets, where a call's lines crowd some sets and
// overflow others, and of one; two streams whose lines share every set;
// streams of two processors, and 24-byte elements. Every call is half the time
// repeated after a coherence merge, so a shared store meets lines it wrote and
// that the merge took off its write-set, and a quarter of the time repeated in
// the same epoch, where they are still on it.
//
// The index cases run the mesh's loops and their neighbours in a cache of 64
// sets: the flux's six streams over two lists drawn with repeats from one
// window, so that the lists share lines; the vertex update, whose store to a
// shared field records its lines; index streams beside a contiguous one; the
// flux on two arrays whose lines share every set. The lines the rule charges
// meet the warm loads' misses and hits in non-MRU ways first. Two regimes sit
// at the rule's edge: cacheWays arrays in one another's sets, each loaded or
// stored through a list of its own, so that each set receives cacheWays lines
// and last accesses them in another order than first; and cacheWays+1 such
// arrays, which no call may take. Three more never take the rule: a 1-set
// cache, whose one set is refProbe's shape, and streams of two processors,
// contiguous and indexed. Each case asserts how many of its calls the rule
// charged: all, some but not all, or none. Every call the footprint memo
// answers — the repeated ones — is audited: its footprint is found anew and
// must be the remembered one; and every charge the rule takes is audited by
// TestMain against its accesses charged one by one.
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
	// sameSets streams each of the first k same-set arrays from one offset:
	// contiguously, through one list, or through a list of its own drawn from
	// one window.
	sameSets := func(k int, lists string) walkCase[float64] {
		return func(e *f64, p *sim.Proc, rng *rand.Rand, n int) []S {
			base, off := rng.Intn(helperLen-32), walkOff(rng, n)
			idx := walkIdx(rng, n, base)
			specs := make([]S, k)
			for i := range specs {
				specs[i] = S{p, e.same[i], off, rng.Intn(2) == 0, nil}
				switch lists {
				case "one":
					specs[i].off, specs[i].idx = 0, idx
				case "own":
					specs[i].off, specs[i].idx = 0, walkIdx(rng, n, base)
				}
			}
			return specs
		}
	}
	tgt := func(e *f64, p *sim.Proc, rng *rand.Rand) *Array[float64] { return e.tgt(p, rng) }
	const sets64 = 64 * cacheWays * 128
	cases := []struct {
		name  string
		cache int    // bytes; 0 = four sets of four 128-byte lines
		rule  string // of the calls, the footprint rule charges "all", "some" (not all) or "none"
		call  walkCase[float64]
	}{
		{"1 stream", 0, "all", func(e *f64, p *sim.Proc, rng *rand.Rand, n int) []S {
			return []S{{p, e.tgt(p, rng), walkOff(rng, n), rng.Intn(2) == 0, nil}}
		}},
		{"2 streams on one line", 0, "all", func(e *f64, p *sim.Proc, rng *rand.Rand, n int) []S {
			a, o := e.tgt(p, rng), rng.Intn(helperLen-n-2)
			return []S{{p, a, o, false, nil}, {p, a, o + 2, false, nil}}
		}},
		{"3 streams, a store beside a load", 0, "all", func(e *f64, p *sim.Proc, rng *rand.Rand, n int) []S {
			a, o := e.tgt(p, rng), rng.Intn(helperLen-n-1)
			return []S{{p, a, o, false, nil}, {p, e.tgt(p, rng), walkOff(rng, n), false, nil}, {p, a, o + 1, true, nil}}
		}},
		{"4 streams", 0, "some", func(e *f64, p *sim.Proc, rng *rand.Rand, n int) []S {
			specs := make([]S, 4)
			for k := range specs {
				specs[k] = S{p, e.tgt(p, rng), walkOff(rng, n), rng.Intn(3) == 0, nil}
			}
			return specs
		}},
		{"5 streams: a stencil row", 0, "some", stencil},
		{"5 streams: a stencil row in 64 sets", sets64, "all", stencil},
		{"5 streams: a stencil row in a 1-set cache", cacheWays * 128, "none", stencil},
		{"2 streams in one set", 0, "all", func(e *f64, p *sim.Proc, rng *rand.Rand, n int) []S {
			o := walkOff(rng, n)
			return []S{{p, e.sh[0], o, rng.Intn(2) == 0, nil}, {p, e.sh[1], o, rng.Intn(2) == 0, nil}}
		}},
		{"cacheWays arrays in one set", sets64, "all", sameSets(cacheWays, "")},
		{"cacheWays+1 arrays in one set", sets64, "none", sameSets(cacheWays+1, "")},
		{"2 processors", 0, "none", func(e *f64, p *sim.Proc, rng *rand.Rand, n int) []S {
			q := e.g.Proc((p.ID() + 1 + rng.Intn(3)) % 4)
			o := walkOff(rng, n)
			return []S{{p, e.sh[0], o, false, nil}, {q, e.sh[0], o, false, nil}, {p, e.sh[1], walkOff(rng, n), true, nil}}
		}},
		{"index: the edge flux", sets64, "all", fluxCase(tgt, tgt)},
		{"index: the vertex update of a shared field", sets64, "all", func(e *f64, p *sim.Proc, rng *rand.Rand, n int) []S {
			u, acc, owned := e.sh[rng.Intn(2)], e.tgt(p, rng), walkIdx(rng, n, rng.Intn(helperLen-32))
			return []S{{p, u, 0, false, owned}, {p, acc, 0, false, owned}, {p, u, 0, true, owned}}
		}},
		{"index: beside a contiguous stream", sets64, "all", func(e *f64, p *sim.Proc, rng *rand.Rand, n int) []S {
			a := e.tgt(p, rng)
			return []S{{p, a, 0, false, walkIdx(rng, n, rng.Intn(helperLen-32))}, {p, e.tgt(p, rng), walkOff(rng, n), rng.Intn(2) == 0, nil},
				{p, a, 0, rng.Intn(2) == 0, walkIdx(rng, n, rng.Intn(helperLen-32))}}
		}},
		{"index: the edge flux on arrays in one set", sets64, "all", fluxCase(
			func(e *f64, _ *sim.Proc, _ *rand.Rand) *Array[float64] { return e.sh[0] },
			func(e *f64, _ *sim.Proc, _ *rand.Rand) *Array[float64] { return e.sh[1] })},
		{"index: cacheWays arrays in one set, last accessed in another order", sets64, "all", sameSets(cacheWays, "own")},
		{"index: cacheWays+1 arrays in one set", sets64, "none", sameSets(cacheWays+1, "one")},
		{"index: the edge flux in a 1-set cache", cacheWays * 128, "none", fluxCase(tgt, tgt)},
		{"index: 2 processors", sets64, "none", func(e *f64, p *sim.Proc, rng *rand.Rand, n int) []S {
			q, owned := e.g.Proc((p.ID()+1+rng.Intn(3))%4), walkIdx(rng, n, rng.Intn(helperLen-32))
			return []S{{p, e.sh[0], 0, false, owned}, {q, e.sh[0], 0, false, owned}, {p, e.sh[1], 0, true, owned}}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			audits, charges := AuditFootprints(t), chargeAudits.Load()
			res := checkWalk(t, func(chargeLoop, useRef bool) traceResult {
				return runWalkCase(c.call, cmp.Or(c.cache, 16*128), chargeLoop, useRef)
			})
			calls, rule, reordered := res.Rule[0], res.Rule[1], res.Rule[2]
			t.Logf("the footprint rule charged %d of %d calls, %d with a last list out of first-access order; the memo answered %d",
				rule, calls, reordered, audits.Load())
			switch {
			case calls == 0 || audits.Load() == 0:
				t.Errorf("%d calls, the memo answered %d", calls, audits.Load())
			case c.rule == "all" && rule != calls, c.rule == "none" && rule != 0, c.rule == "some" && (rule == 0 || rule == calls):
				t.Errorf("the footprint rule charged %d of %d calls, want %s", rule, calls, c.rule)
			case rule != 0 && chargeAudits.Load() == charges:
				t.Error("no charge of the rule was audited")
			case strings.Contains(c.name, "another order") && reordered*2 < rule:
				t.Errorf("%d of %d charges moved their lines out of first-access order, want at least half", reordered, rule)
			}
		})
	}
	t.Run("24-byte elements", func(t *testing.T) {
		type w24 = [3]float64
		checkWalk(t, func(chargeLoop, useRef bool) traceResult {
			return runWalkCase(func(e *walkEnv[w24], p *sim.Proc, rng *rand.Rand, n int) []walkSpec[w24] {
				a, o := e.tgt(p, rng), rng.Intn(helperLen-n-1)
				return []walkSpec[w24]{{p, a, o, false, nil}, {p, a, o + 1, rng.Intn(2) == 0, nil}, {p, e.tgt(p, rng), walkOff(rng, n), true, nil}}
			}, 16*128, chargeLoop, useRef)
		})
	})
}

// checkWalk compares ChargeLoop with its element loop on each model, and the
// two models' element loops in everything but the sharer lists, which only the
// fast path keeps. It returns ChargeLoop's run on the fast path.
func checkWalk(t *testing.T, run func(chargeLoop, useRef bool) traceResult) traceResult {
	t.Helper()
	loops, charged := map[bool]traceResult{}, map[bool]traceResult{}
	for _, useRef := range []bool{false, true} {
		loops[useRef], charged[useRef] = run(false, useRef), run(true, useRef)
		if d := charged[useRef].diff(loops[useRef]); d != "" {
			t.Errorf("refModel=%v: ChargeLoop differs from its element loop in %s", useRef, d)
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
	return charged[false]
}

// TestFootprintMemo scripts the footprint memo's keys on one space with a
// cache of 64 sets. A repeated call is answered by the memo; the same list on
// another array, through another processor's cache, over another [lo, hi), at
// another offset or loaded where it was stored is a call of its own, and so is
// the 2-processor shape beside the one-cache call of the same lists. A
// declined call — cacheWays+1 arrays whose lines share every set — stays
// declined. Every answer is audited, and a list modified in place between two
// calls — what the contract on Stream forbids — is what the audit catches.
func TestFootprintMemo(t *testing.T) {
	const procs = 4
	cfg := machine.Default(procs)
	cfg.CacheBytes = 64 * cacheWays * 128
	sp := NewSpace(machine.MustNew(cfg))
	g := sim.NewGroup(procs)
	var same [cacheWays + 1]*Array[float64] // line for line in one another's sets
	for k := range same {
		if k > 0 {
			sameSetsAs(sp, same[k-1])
		}
		same[k] = NewShared[float64](sp, helperLen)
	}
	sh0, sh1 := same[0], same[1]
	p, q := g.Proc(0), g.Proc(1)
	owned := make([]int32, 48)
	for j := range owned {
		owned[j] = int32(100 + (j*7)%64) // five lines, in five sets
	}
	type S = walkSpec[float64]
	update := func(p *sim.Proc, a *Array[float64], idx []int32) []S {
		return []S{{p, a, 0, false, idx}, {p, a, 0, true, idx}}
	}
	var overflow []S
	for _, a := range same {
		overflow = append(overflow, S{p, a, 0, false, owned})
	}
	var hit, took bool
	footprintTally = func(_ fpKey, h bool, fp footprint) { hit, took = h, fp.took }
	defer func() { footprintTally = nil }()
	differ := 0
	auditFootprints(func(memo, fresh footprint) { differ++ })
	defer func() { memoAudit = nil }()
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
		{"two arrays in the same sets", []S{{p, sh0, 0, false, owned}, {p, sh1, 0, true, owned}}, 0, 48, false, true},
		{"cacheWays+1 arrays in the same sets", overflow, 0, 48, false, false},
		{"declined again", overflow, 0, 48, true, false},
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
	// so the memo answers with the footprint of what it was, and TestMain's
	// audit of the charge, which panics on it, catches it too.
	moved := slices.Clone(owned)
	walkCall(update(p, sh0, moved), 0, 48, true)
	moved[5] = helperLen - 1 // a line the list did not reach
	charges, caught := chargeAudit, false
	chargeAudit = func(c *cache, p *sim.Proc, charge, each func() (uint64, sim.Time)) {
		defer func() { caught = recover() != nil }()
		charges(c, p, charge, each)
	}
	defer func() { chargeAudit = charges }()
	walkCall(update(p, sh0, moved), 0, 48, true)
	if !hit || differ != 1 || !caught {
		t.Errorf("a list modified in place: memo hit %v, the memo audit found %d differences, the charge audit caught it: %v; want a hit, 1 and true",
			hit, differ, caught)
	}
}
