package adaptmesh

import (
	"fmt"

	"o2k/internal/mesh"
	"o2k/internal/partition"
	"o2k/internal/planio"
)

// Structure is the processor-count-independent half of plan construction:
// the full adaptation history of the workload's forest — one conforming
// snapshot per cycle plus the forest-wide parent arrays. It is the expensive
// part of BuildPlans that every processor count (and every run-time knob
// ablation) shares, and the unit the persistent plan cache stores.
//
// StructureSchema and PlanSchema version the serialized forms; they are
// folded into the cache keys, so a format change retires old entries instead
// of misreading them (the in-payload version headers are the backstop).
const (
	StructureSchema = "o2kmeshstruct/1"
	PlanSchema      = "o2kmeshplan/1"
)

// Structure holds the adaptation history. VX/VY and MidA/MidB are the
// forest's final coordinate and parent arrays; cycle c's snapshot uses the
// prefix [:NV_c] (vertex IDs are append-only, so earlier cycles see a prefix
// of the final ID space).
type Structure struct {
	BaseTris   int
	VX, VY     []float64
	MidA, MidB []int32
	Cycles     []StructCycle
}

// StructCycle is one adaptation cycle's structural output.
type StructCycle struct {
	M     *mesh.Mesh
	Stats mesh.AdaptStats
}

// BuildStructure runs the workload's adaptation sequence. Adaptation never
// depends on the partitioning, so the whole history can be computed before
// any processor count is chosen — the separation that lets fig12's machine
// presets (and every P of a scaling sweep) share one structure.
func BuildStructure(w Workload) *Structure {
	f := mesh.NewUnitSquare(w.GridN, w.MaxLevel)
	st := &Structure{BaseTris: f.BaseTris()}
	for c := 0; c < w.Cycles; c++ {
		stats := f.Adapt(w.Front.At(c))
		st.Cycles = append(st.Cycles, StructCycle{M: f.Snapshot(), Stats: stats})
	}
	st.VX, st.VY = f.VX, f.VY
	st.MidA, st.MidB = f.MidA, f.MidB
	return st
}

// appendFront writes the workload's front parameters as a self-describing
// cross-check inside the structure payload.
func appendFront(pw *planio.Writer, w Workload) {
	pw.Word("front")
	pw.End()
	w.Front.AppendTo(pw)
}

// checkFront verifies the decoded payload's front matches the workload the
// cache key claimed — a defence against entries stored under a wrong key.
func checkFront(s *planio.Scanner, w Workload) error {
	if kind := s.Word(); kind != "front" {
		if err := s.Err(); err != nil {
			return err
		}
		return fmt.Errorf("adaptmesh: bad front kind %q", kind)
	}
	f, err := mesh.DecodeMovingFrontFrom(s)
	if err != nil {
		return err
	}
	if w.Front != f {
		return fmt.Errorf("adaptmesh: structure entry is for a different front workload")
	}
	return s.Err()
}

// EncodeStructure serializes the adaptation history:
//
//	o2kmeshstruct 1 <BaseTris> <cycles> <nvFinal>
//	<front cross-check>
//	<x> <y> <midA> <midB>      (nvFinal lines)
//	cycle <NV> <Refined> <Coarsened> <Passes> <nt>
//	<triangle table>           (per cycle, mesh v2 rows)
func EncodeStructure(st *Structure, w Workload) []byte {
	var pw planio.Writer
	pw.Word("o2kmeshstruct")
	pw.Int(1)
	pw.Int(st.BaseTris)
	pw.Int(len(st.Cycles))
	pw.Int(len(st.MidA))
	pw.End()
	appendFront(&pw, w)
	for v := range st.MidA {
		pw.Float(st.VX[v])
		pw.Float(st.VY[v])
		pw.Int(int(st.MidA[v]))
		pw.Int(int(st.MidB[v]))
		pw.End()
	}
	for _, sc := range st.Cycles {
		pw.Word("cycle")
		pw.Int(sc.M.NumVertsTotal())
		pw.Int(sc.Stats.Refined)
		pw.Int(sc.Stats.Coarsened)
		pw.Int(sc.Stats.Passes)
		pw.Int(sc.M.NumTris())
		pw.End()
		sc.M.AppendTris(&pw)
	}
	return pw.Bytes()
}

// DecodeStructure rebuilds an adaptation history from EncodeStructure's
// output, validating it against the expected workload. All snapshots share
// one decoded coordinate arena, exactly like the forest they came from.
func DecodeStructure(data []byte, w Workload) (*Structure, error) {
	s := planio.NewScanner(data)
	s.Expect("o2kmeshstruct")
	if v := s.Int(); s.Err() == nil && v != 1 {
		return nil, fmt.Errorf("adaptmesh: unsupported structure version %d", v)
	}
	st := &Structure{BaseTris: s.IntRange(1, 1<<30)}
	cycles := s.IntRange(0, 1<<20)
	nv := s.IntRange(1, 1<<30)
	if err := s.Err(); err != nil {
		return nil, err
	}
	if cycles != w.Cycles {
		return nil, fmt.Errorf("adaptmesh: structure entry has %d cycles, workload wants %d", cycles, w.Cycles)
	}
	if err := checkFront(s, w); err != nil {
		return nil, err
	}
	vx := make([]float64, nv)
	vy := make([]float64, nv)
	st.MidA = make([]int32, nv)
	st.MidB = make([]int32, nv)
	for v := 0; v < nv; v++ {
		vx[v] = s.Float()
		vy[v] = s.Float()
		// Parents always have smaller IDs than their midpoint — the invariant
		// the interpolation recursion and ancestor walks terminate on — so
		// enforce it here: a corrupt in-range value must not be able to form
		// a parent-chain cycle.
		st.MidA[v] = int32(s.IntRange(-1, v-1))
		st.MidB[v] = int32(s.IntRange(-1, v-1))
	}
	st.VX, st.VY = vx, vy
	for c := 0; c < cycles; c++ {
		s.Expect("cycle")
		cnv := s.IntRange(1, nv)
		var stats mesh.AdaptStats
		stats.Refined = s.IntRange(0, 1<<30)
		stats.Coarsened = s.IntRange(0, 1<<30)
		stats.Passes = s.IntRange(0, 1<<30)
		nt := s.IntRange(1, 1<<30)
		if err := s.Err(); err != nil {
			return nil, err
		}
		m, err := mesh.DecodeTris(s, nt, vx[:cnv], vy[:cnv])
		if err != nil {
			return nil, err
		}
		st.Cycles = append(st.Cycles, StructCycle{M: m, Stats: stats})
	}
	s.Done()
	if err := s.Err(); err != nil {
		return nil, err
	}
	return st, nil
}

// EncodePlans serializes the per-processor-count half of a plan sequence:
// the partitioning decisions (triangle owners and remap statistics) each
// cycle's full plan is deterministically derived from.
//
//	o2kmeshplan 1 <P> <cycles>
//	<decomp> <TotalW> <MaxOutW> <MaxInW> <Retained>   (per cycle)
func EncodePlans(plans []*CyclePlan, nprocs int) []byte {
	var pw planio.Writer
	pw.Word("o2kmeshplan")
	pw.Int(1)
	pw.Int(nprocs)
	pw.Int(len(plans))
	pw.End()
	for _, p := range plans {
		p.Dec.AppendTo(&pw)
		pw.Float(p.Remap.TotalW)
		pw.Float(p.Remap.MaxOutW)
		pw.Float(p.Remap.MaxInW)
		pw.Float(p.Remap.Retained)
		pw.End()
	}
	return pw.Bytes()
}

// DecodePlans rebuilds a plan sequence from EncodePlans output by replaying
// the derivation against the structure. The owner vectors are validated per
// cycle; any mismatch with the structure (or the requested processor count)
// is an error, which the cache layer converts into a recomputation.
func (st *Structure) DecodePlans(data []byte, nprocs int) ([]*CyclePlan, error) {
	s := planio.NewScanner(data)
	s.Expect("o2kmeshplan")
	if v := s.Int(); s.Err() == nil && v != 1 {
		return nil, fmt.Errorf("adaptmesh: unsupported plan version %d", v)
	}
	p := s.Int()
	cycles := s.Int()
	if err := s.Err(); err != nil {
		return nil, err
	}
	if p != nprocs {
		return nil, fmt.Errorf("adaptmesh: plan entry is for P=%d, want P=%d", p, nprocs)
	}
	if cycles != len(st.Cycles) {
		return nil, fmt.Errorf("adaptmesh: plan entry has %d cycles, structure has %d", cycles, len(st.Cycles))
	}
	plans := make([]*CyclePlan, 0, cycles)
	var prev *CyclePlan
	for c := 0; c < cycles; c++ {
		dec, err := partition.DecodeDecompFrom(s, st.Cycles[c].M)
		if err != nil {
			return nil, err
		}
		if dec.P != nprocs {
			return nil, fmt.Errorf("adaptmesh: cycle %d decomp is for P=%d, want P=%d", c, dec.P, nprocs)
		}
		var remap partition.RemapStats
		remap.TotalW = s.Float()
		remap.MaxOutW = s.Float()
		remap.MaxInW = s.Float()
		remap.Retained = s.Float()
		if err := s.Err(); err != nil {
			return nil, err
		}
		pl := st.planCycle(c, dec, remap, nprocs, prev)
		plans = append(plans, pl)
		prev = pl
	}
	s.Done()
	if err := s.Err(); err != nil {
		return nil, err
	}
	return plans, nil
}
