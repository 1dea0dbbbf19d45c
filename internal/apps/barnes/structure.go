package barnes

import (
	"fmt"
	"sync"

	"o2k/internal/nbody"
	"o2k/internal/planio"
)

// StructureSchema versions the serialized reference-simulation structure;
// it is folded into the plan cache key, so format changes retire old entries.
const StructureSchema = "o2knbstruct/1"

// Structure is the processor-count-independent half of plan construction:
// the reference simulation's per-step record — body positions at the start
// of the step (what cost-zones partitioning reads), the quadtree, and the
// per-body interaction counts the step's force evaluation produced. The
// force evaluation is by far the dominant cost of plan construction; every
// processor count derives its plans from this one record.
type Structure struct {
	N     int
	Steps []*StepStructure
}

// StepStructure is one time step's captured state.
type StepStructure struct {
	X, Y  []float64   // body positions at the start of the step
	Tree  *nbody.Tree // quadtree over those positions
	Inter []int       // per-body interactions evaluated this step
	Walk  *WalkPlan   // lazy force-walk oracle (never serialized)

	orderOnce sync.Once
	order     []int32 // Morton traversal order over X/Y, computed on demand
}

// attachWalks gives every step its walk-plan holder, to be built on first
// force phase (see WalkPlan). Masses are constant over the run and derivable
// from the workload, so they are never serialized.
func (st *Structure) attachWalks(w Workload) {
	m := nbody.NewPlummer(w.N, w.Seed).M
	var prev *WalkPlan
	for _, ss := range st.Steps {
		ss.Walk = &WalkPlan{x: ss.X, y: ss.Y, m: m, tree: ss.Tree, theta: w.Theta, prev: prev}
		prev = ss.Walk
	}
}

// mortonOrder returns the step's Morton traversal order, computed once and
// shared by every processor count deriving plans from this structure (plan
// cells for different P may run concurrently on one structure).
func (ss *StepStructure) mortonOrder() []int32 {
	ss.orderOnce.Do(func() {
		ss.order = nbody.MortonOrder(&nbody.Bodies{X: ss.X, Y: ss.Y})
	})
	return ss.order
}

// BuildStructure runs the reference simulation once, capturing the per-step
// structural record. Each step's force evaluation is its walk plan's build:
// one traversal per step yields the accelerations that advance the bodies, the
// interaction counts and the stream the force phases replay.
func BuildStructure(w Workload) *Structure {
	b := nbody.NewPlummer(w.N, w.Seed)
	st := &Structure{N: w.N}
	var prev *WalkPlan
	for s := 0; s < w.Steps; s++ {
		ss := &StepStructure{
			X:     append([]float64(nil), b.X...),
			Y:     append([]float64(nil), b.Y...),
			Tree:  nbody.Build(b),
			Inter: make([]int, w.N),
		}
		wp := &WalkPlan{x: ss.X, y: ss.Y, m: b.M, tree: ss.Tree, theta: w.Theta, prev: prev}
		wp.once.Do(func() { wp.build(ss.Inter) })
		b.Leapfrog(wp.AX, wp.AY)
		ss.Walk, prev = wp, wp
		st.Steps = append(st.Steps, ss)
	}
	return st
}

// Plans derives the per-step plans for nprocs processors: cost-zones
// partitioning over the captured positions with costs chained from the
// previous step's interaction counts, exactly as the interleaved reference
// loop computed them.
func (st *Structure) Plans(nprocs int) []*StepPlan {
	cost := make([]float64, st.N)
	for i := range cost {
		cost[i] = 1
	}
	plans := make([]*StepPlan, 0, len(st.Steps))
	for _, ss := range st.Steps {
		owner := nbody.CostZonesOrdered(ss.mortonOrder(), cost, nprocs)
		pl := &StepPlan{
			Tree:        ss.Tree,
			Owner:       owner,
			OwnedBodies: make([][]int32, nprocs),
			Inter:       ss.Inter,
			Walk:        ss.Walk,
			loads:       make([]procLoads, nprocs),
		}
		for i := 0; i < st.N; i++ {
			pl.OwnedBodies[owner[i]] = append(pl.OwnedBodies[owner[i]], int32(i))
			cost[i] = float64(ss.Inter[i])
		}
		plans = append(plans, pl)
	}
	return plans
}

// EncodeStructure serializes the reference record:
//
//	o2knbstruct 1 <N> <steps>
//	step <s>
//	<x> <y> <inter>        (N lines)
//	<tree>                 (o2knbtree block)
func EncodeStructure(st *Structure) []byte {
	var pw planio.Writer
	pw.Word("o2knbstruct")
	pw.Int(1)
	pw.Int(st.N)
	pw.Int(len(st.Steps))
	pw.End()
	for s, ss := range st.Steps {
		pw.Word("step")
		pw.Int(s)
		pw.End()
		for i := 0; i < st.N; i++ {
			pw.Float(ss.X[i])
			pw.Float(ss.Y[i])
			pw.Int(ss.Inter[i])
			pw.End()
		}
		ss.Tree.AppendTo(&pw)
	}
	return pw.Bytes()
}

// DecodeStructure rebuilds a reference record, validating it against the
// expected workload.
func DecodeStructure(data []byte, w Workload) (*Structure, error) {
	s := planio.NewScanner(data)
	s.Expect("o2knbstruct")
	if v := s.Int(); s.Err() == nil && v != 1 {
		return nil, fmt.Errorf("barnes: unsupported structure version %d", v)
	}
	n := s.IntRange(1, 1<<28)
	steps := s.IntRange(0, 1<<20)
	if err := s.Err(); err != nil {
		return nil, err
	}
	if n != w.N || steps != w.Steps {
		return nil, fmt.Errorf("barnes: structure entry is N=%d steps=%d, workload wants N=%d steps=%d", n, steps, w.N, w.Steps)
	}
	st := &Structure{N: n}
	for sn := 0; sn < steps; sn++ {
		s.Expect("step")
		if got := s.Int(); s.Err() == nil && got != sn {
			return nil, fmt.Errorf("barnes: step %d out of order (got %d)", sn, got)
		}
		ss := &StepStructure{
			X:     make([]float64, n),
			Y:     make([]float64, n),
			Inter: make([]int, n),
		}
		for i := 0; i < n; i++ {
			ss.X[i] = s.Float()
			ss.Y[i] = s.Float()
			ss.Inter[i] = s.IntRange(0, 1<<30)
		}
		if err := s.Err(); err != nil {
			return nil, err
		}
		t, err := nbody.DecodeTreeFrom(s, n)
		if err != nil {
			return nil, err
		}
		ss.Tree = t
		st.Steps = append(st.Steps, ss)
	}
	s.Done()
	if err := s.Err(); err != nil {
		return nil, err
	}
	st.attachWalks(w)
	return st, nil
}
