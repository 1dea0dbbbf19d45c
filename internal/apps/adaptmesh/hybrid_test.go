package adaptmesh

import (
	"math"
	"testing"

	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/sim"
)

func TestHybridMatchesReference(t *testing.T) {
	w := Small()
	ref := ReferenceChecksum(w)
	for _, procs := range []int{2, 4, 8, 6} {
		m := mach(procs)
		met := RunHybrid(m, w)
		if met.Model != core.Hybrid || met.Model.String() != "MP+SAS" {
			t.Fatal("hybrid metrics mislabelled")
		}
		if rel := math.Abs(met.Checksum-ref) / math.Abs(ref); rel > 1e-9 {
			t.Fatalf("P=%d: hybrid checksum drift %v (got %v want %v)", procs, rel, met.Checksum, ref)
		}
	}
}

func TestHybridMatchesPureAtOneProcPerNode(t *testing.T) {
	// With one processor per node the hybrid degenerates to pure MP over
	// the same decomposition: checksums must be bit-identical.
	w := Small()
	m := mach(4)
	cfg := m.Cfg
	cfg.ProcsPerNode = 1
	m1, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plans := BuildPlans(w, 4)
	pure := RunWithPlans(core.MP, m1, w, plans).Checksum
	hyb := RunHybridWithPlans(m1, w, plans).Checksum
	if pure != hyb {
		t.Fatalf("hybrid(ppn=1) %v != pure MP %v", hyb, pure)
	}
}

func TestHybridDeterministic(t *testing.T) {
	w := Small()
	plans := BuildPlans(w, mach(8).Nodes())
	a := RunHybridWithPlans(mach(8), w, plans)
	b := RunHybridWithPlans(mach(8), w, plans)
	if a.Total != b.Total || a.Checksum != b.Checksum {
		t.Fatalf("hybrid nondeterministic: %v/%v vs %v/%v", a.Total, a.Checksum, b.Total, b.Checksum)
	}
}

func TestHybridVsPureMP(t *testing.T) {
	// The authors' follow-up finding: on tightly coupled hardware the hybrid
	// shows "only a small performance advantage over pure MPI in some
	// cases" — it must be competitive (within 15%) on the Origin profile...
	w := Default()
	m := mach(64)
	pure := RunWithPlans(core.MP, m, w, BuildPlans(w, 64)).Total
	hyb := RunHybrid(m, w).Total
	if float64(hyb) > 1.15*float64(pure) {
		t.Fatalf("hybrid (%v) not competitive with pure MP (%v) on Origin", hyb, pure)
	}
	// ...and must genuinely win where inter-node messages are expensive:
	// a cluster of 4-way SMPs.
	mc := machine.MustNew(machine.ClusterOfSMPs(32))
	pureC := RunWithPlans(core.MP, mc, w, BuildPlans(w, 32)).Total
	hybC := RunHybridWithPlans(mc, w, BuildPlans(w, mc.Nodes())).Total
	if hybC >= pureC {
		t.Fatalf("hybrid (%v) not faster than pure MP (%v) on cluster of SMPs", hybC, pureC)
	}
}

func TestHybridPhasesAndMemory(t *testing.T) {
	w := Small()
	met := RunHybrid(mach(8), w)
	if met.PhaseMax[sim.PhaseCompute] == 0 || met.PhaseMax[sim.PhaseComm] == 0 {
		t.Error("hybrid phase attribution missing")
	}
	if met.PhaseMax[sim.PhaseSync] == 0 {
		t.Error("hybrid should spend time in intra-node barriers")
	}
	if met.DataBytes <= 0 {
		t.Error("hybrid memory accounting missing")
	}
	// Node-granular ghosts: hybrid replicates less than pure MP at the same
	// processor count.
	pureMP := RunWithPlans(core.MP, mach(8), w, BuildPlans(w, 8))
	if met.DataBytes >= pureMP.DataBytes {
		t.Errorf("hybrid memory %d not below pure MP %d", met.DataBytes, pureMP.DataBytes)
	}
}

func TestHybridRejectsWrongPlans(t *testing.T) {
	w := Small()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for proc-granularity plans")
		}
	}()
	RunHybridWithPlans(mach(8), w, BuildPlans(w, 8)) // 8 procs = 4 nodes: mismatch
}
