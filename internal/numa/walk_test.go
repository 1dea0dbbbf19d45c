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
// the array, the offset, and whether it stores.
type walkSpec[T any] struct {
	p     *sim.Proc
	a     *Array[T]
	off   int
	write bool
}

// walkCase draws the streams of one call of n steps on processor p; every
// offset leaves room for n elements.
type walkCase[T any] func(e *walkEnv[T], p *sim.Proc, rng *rand.Rand, n int) []walkSpec[T]

// walkOff is a random offset with room for n elements after it.
func walkOff(rng *rand.Rand, n int) int { return rng.Intn(helperLen - n) }

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
		streams[k] = Stream[T]{C: cursors[i], Off: s.off, Write: s.write}
	}
	if walk {
		ChargeLoop(lo, hi, streams...)
	} else {
		var zero T
		for j := lo; j < hi; j++ {
			for _, s := range streams {
				if s.Write {
					s.C.Store(s.Off+j, zero)
				} else {
					s.C.Load(s.Off + j)
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
// 64 steps, and half the time a coherence merge and the same call again; every
// 25 steps end with a merge. It returns what is observable: the write-sets
// before every merge, and the sharer list of every line of the shared arrays
// as Data.
func runWalkCase[T any](call walkCase[T], cacheBytes int, walk, useRef bool) traceResult {
	refModel = useRef
	defer func() { refModel = false }()
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
		if rng.Intn(2) == 0 {
			merge()
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
	return res
}

// TestChargeLoopMatchesElementLoop checks the walk against the Cursor loop it
// charges like, in the style of TestHelpersMatchElementLoops: on the fast path
// and on the reference model, ChargeLoop leaves the clocks, per-phase times,
// counters, write-sets, merge penalties, evictions, cache tags and sharer
// lists of its element loop. The cases: one to five streams, two of them on
// one line as the stencil's j-1 and j+1 are; offsets anywhere in a line;
// caches of four sets and of one, where streams evict each other mid-run; two
// streams whose lines share every set; streams of two processors, and
// 24-byte elements, which take the loop without runs. Every call is half the
// time repeated after a coherence merge, so a shared store meets lines it
// wrote and that the merge took off its write-set.
func TestChargeLoopMatchesElementLoop(t *testing.T) {
	type f64 = walkEnv[float64]
	type S = walkSpec[float64]
	stencil := func(e *f64, p *sim.Proc, rng *rand.Rand, n int) []S {
		src, dst := e.tgt(p, rng), e.tgt(p, rng)
		up, row, down := walkOff(rng, n), 1+rng.Intn(helperLen-n-2), walkOff(rng, n)
		return []S{{p, src, up, false}, {p, src, down, false}, {p, src, row - 1, false}, {p, src, row + 1, false},
			{p, dst, walkOff(rng, n), true}}
	}
	cases := []struct {
		name  string
		cache int // bytes; 0 = four sets of four 128-byte lines
		call  walkCase[float64]
	}{
		{"1 stream", 0, func(e *f64, p *sim.Proc, rng *rand.Rand, n int) []S {
			return []S{{p, e.tgt(p, rng), walkOff(rng, n), rng.Intn(2) == 0}}
		}},
		{"2 streams on one line", 0, func(e *f64, p *sim.Proc, rng *rand.Rand, n int) []S {
			a, o := e.tgt(p, rng), rng.Intn(helperLen-n-2)
			return []S{{p, a, o, false}, {p, a, o + 2, false}}
		}},
		{"3 streams, a store beside a load", 0, func(e *f64, p *sim.Proc, rng *rand.Rand, n int) []S {
			a, o := e.tgt(p, rng), rng.Intn(helperLen-n-1)
			return []S{{p, a, o, false}, {p, e.tgt(p, rng), walkOff(rng, n), false}, {p, a, o + 1, true}}
		}},
		{"4 streams", 0, func(e *f64, p *sim.Proc, rng *rand.Rand, n int) []S {
			specs := make([]S, 4)
			for k := range specs {
				specs[k] = S{p, e.tgt(p, rng), walkOff(rng, n), rng.Intn(3) == 0}
			}
			return specs
		}},
		{"5 streams: a stencil row", 0, stencil},
		{"5 streams: a stencil row in a 1-set cache", cacheWays * 128, stencil},
		{"2 streams in one set", 0, func(e *f64, p *sim.Proc, rng *rand.Rand, n int) []S {
			o := walkOff(rng, n)
			return []S{{p, e.sh[0], o, rng.Intn(2) == 0}, {p, e.sh[1], o, rng.Intn(2) == 0}}
		}},
		{"2 processors", 0, func(e *f64, p *sim.Proc, rng *rand.Rand, n int) []S {
			q := e.g.Proc((p.ID() + 1 + rng.Intn(3)) % 4)
			o := walkOff(rng, n)
			return []S{{p, e.sh[0], o, false}, {q, e.sh[0], o, false}, {p, e.sh[1], walkOff(rng, n), true}}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkWalk(t, func(walk, useRef bool) traceResult {
				return runWalkCase(c.call, cmp.Or(c.cache, 16*128), walk, useRef)
			})
		})
	}
	t.Run("24-byte elements", func(t *testing.T) {
		type w24 = [3]float64
		checkWalk(t, func(walk, useRef bool) traceResult {
			return runWalkCase(func(e *walkEnv[w24], p *sim.Proc, rng *rand.Rand, n int) []walkSpec[w24] {
				a, o := e.tgt(p, rng), rng.Intn(helperLen-n-1)
				return []walkSpec[w24]{{p, a, o, false}, {p, a, o + 1, rng.Intn(2) == 0}, {p, e.tgt(p, rng), walkOff(rng, n), true}}
			}, 16*128, walk, useRef)
		})
	})
}

// checkWalk compares the walk with its element loop on each model, and the two
// models' element loops in everything but the sharer lists, which only the
// fast path keeps.
func checkWalk(t *testing.T, run func(walk, useRef bool) traceResult) {
	t.Helper()
	loops := map[bool]traceResult{}
	for _, useRef := range []bool{false, true} {
		loops[useRef] = run(false, useRef)
		if d := run(true, useRef).diff(loops[useRef]); d != "" {
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
}
