package sim

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// The specification of virtual time (the numa/ref.go pattern, not a second
// scheduler): seeded random SPMD programs are data, specRun evaluates one by
// the definitions alone — procs visited in rank order, nothing suspended —
// and TestRunMatchesSpec requires Group.Run over the real primitives to
// produce the same clocks, phase times, reducer results and traces.
//
// The definitions. Advance(d) adds d to the clock and to the current phase.
// A rendezvous of a gang releases member r at max(entry clocks) + cost(gang
// size) + pen[r], the wait charged to PhaseSync. A reducer hands every member
// combine(values in slot order). A Cond merges no clocks: the token ring's
// merge is the one its holders write. A trace is the run-length encoding by
// phase of the proc's timeline.

const (
	stAdvance = iota // every rank charges d[rank] to ph[rank]
	stBarrier        // one barrier per gang; d, when set, is the hook's penalties
	stReduce         // one reducer per gang: Do when the gang is the group, else DoAs
	stRing           // a token visits the ranks in order through one Cond
)

type specStep struct {
	kind int
	gang int     // barrier, reduce: ranks [i*gang, (i+1)*gang) form gang i
	d    []Time  // per rank
	ph   []Phase // per rank
	cost Time    // barrier, reduce: cost(n) = cost*n; ring: one hop
}

type specOutcome struct {
	Clocks  []Time
	Phases  [][NumPhases]Time
	Results [][]int // per rank, one per reduce step
	Traces  [][]Segment
}

func randomProgram(rng *rand.Rand, n int) []specStep {
	perRank := func(max int) []Time {
		d := make([]Time, n)
		for r := range d {
			d[r] = Time(rng.Intn(max)) * Time(rng.Intn(3)) / 2 // a third are zero
		}
		return d
	}
	prog := make([]specStep, 8+rng.Intn(24))
	for i := range prog {
		st := &prog[i]
		st.kind, st.cost = rng.Intn(4), Time(rng.Intn(50))
		for st.gang = 1 + rng.Intn(n); n%st.gang != 0; st.gang = 1 + rng.Intn(n) {
		}
		switch {
		case st.kind == stAdvance:
			st.d, st.ph = perRank(1000), make([]Phase, n)
			for r := range st.ph {
				st.ph[r] = Phase(rng.Intn(int(NumPhases)))
			}
		case st.kind == stBarrier && rng.Intn(3) > 0:
			st.d = perRank(40)
		}
	}
	return prog
}

// specCombine depends on the order of its operands.
func specCombine(vals []any) any {
	h := 0
	for _, v := range vals {
		h = h*31 + v.(int)
	}
	return h
}

func specValue(rank, step int) int { return rank*7 + step }

func specRun(n int, prog []specStep) specOutcome {
	out := specOutcome{make([]Time, n), make([][NumPhases]Time, n), make([][]int, n), make([][]Segment, n)}
	charge := func(r int, ph Phase, d Time) {
		if d == 0 {
			return
		}
		if tr := out.Traces[r]; len(tr) > 0 && tr[len(tr)-1].Phase == ph {
			tr[len(tr)-1].End += d
		} else {
			out.Traces[r] = append(tr, Segment{ph, out.Clocks[r], out.Clocks[r] + d})
		}
		out.Clocks[r] += d
		out.Phases[r][ph] += d
	}
	for i, st := range prog {
		switch st.kind {
		case stAdvance:
			for r := 0; r < n; r++ {
				charge(r, st.ph[r], st.d[r])
			}
		case stBarrier, stReduce:
			for lo := 0; lo < n; lo += st.gang {
				rel, vals := Time(0), make([]any, st.gang)
				for r := lo; r < lo+st.gang; r++ {
					rel = Max(rel, out.Clocks[r])
					vals[r-lo] = specValue(r, i)
				}
				rel += st.cost * Time(st.gang)
				for r := lo; r < lo+st.gang; r++ {
					pen := Time(0)
					if st.d != nil {
						pen = st.d[r]
					}
					charge(r, PhaseSync, rel+pen-out.Clocks[r])
					if st.kind == stReduce {
						out.Results[r] = append(out.Results[r], specCombine(vals).(int))
					}
				}
			}
		case stRing:
			tok := Time(0)
			for r := 0; r < n; r++ {
				charge(r, PhaseSync, Max(tok, out.Clocks[r])-out.Clocks[r])
				charge(r, PhaseComm, st.cost)
				tok = out.Clocks[r]
			}
		}
	}
	return out
}

// realRun interprets prog on g with one Barrier or Reducer per gang per step.
func realRun(g *Group, prog []specStep) specOutcome {
	n := g.Size()
	type stepState struct {
		bars []*Barrier
		reds []*Reducer
		mu   sync.Mutex
		cv   Cond
		tok  int
		tokT Time
	}
	state := make([]stepState, len(prog))
	for i, st := range prog {
		cost := func(k int) Time { return st.cost * Time(k) }
		var hook func() []Time
		if st.d != nil {
			hook = func() []Time { return st.d }
		}
		for lo := 0; lo < n; lo += st.gang {
			state[i].bars = append(state[i].bars, NewBarrierHook(st.gang, cost, hook))
			state[i].reds = append(state[i].reds, NewReducer(st.gang, cost))
		}
	}
	out := specOutcome{Results: make([][]int, n)}
	g.EnableTrace()
	g.Run(func(p *Proc) {
		me := p.ID()
		for i := range prog {
			st, ss := &prog[i], &state[i]
			switch st.kind {
			case stAdvance:
				p.SetPhase(st.ph[me])
				p.Advance(st.d[me])
			case stBarrier:
				ss.bars[me/st.gang].Wait(p)
			case stReduce:
				var got any
				if st.gang == n {
					got = ss.reds[0].Do(p, specValue(me, i), specCombine)
				} else {
					got = ss.reds[me/st.gang].DoAs(p, me%st.gang, specValue(me, i), specCombine)
				}
				out.Results[me] = append(out.Results[me], got.(int))
			case stRing:
				ss.mu.Lock()
				for ss.tok != me {
					ss.cv.Wait(p, &ss.mu)
				}
				prev := p.SetPhase(PhaseSync)
				p.AdvanceTo(ss.tokT)
				p.SetPhase(PhaseComm)
				p.Advance(st.cost)
				p.SetPhase(prev)
				ss.tok, ss.tokT = me+1, p.Now()
				ss.cv.Broadcast()
				ss.mu.Unlock()
			}
		}
	})
	for r := 0; r < n; r++ {
		out.Clocks = append(out.Clocks, g.Proc(r).Now())
		out.Phases = append(out.Phases, g.Proc(r).phaseTime)
	}
	out.Traces = g.Traces()
	return out
}

func TestRunMatchesSpec(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		prog := randomProgram(rng, n)
		want := specRun(n, prog)
		if got := realRun(NewGroup(n), prog); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d, %d procs: Run diverges from the definitions:\n got %+v\nwant %+v", seed, n, got, want)
		}
	}
}
