package barnes

import (
	"math"
	"slices"
	"testing"

	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/sim"
)

func mach(p int) *machine.Machine { return machine.MustNew(machine.Default(p)) }

// buildPlans runs the reference simulation and derives its step plans for
// nprocs processors in one go.
func buildPlans(w Workload, nprocs int) []*StepPlan { return BuildStructure(w).Plans(nprocs) }

func TestPlansCoverAllBodies(t *testing.T) {
	w := Small()
	plans := buildPlans(w, 4)
	if len(plans) != w.Steps {
		t.Fatalf("plan count %d", len(plans))
	}
	for _, pl := range plans {
		seen := make([]bool, w.N)
		for q := 0; q < 4; q++ {
			last := int32(-1)
			for _, i := range pl.OwnedBodies[q] {
				if seen[i] {
					t.Fatalf("body %d owned twice", i)
				}
				if i <= last {
					t.Fatal("owned list not ascending")
				}
				last = i
				seen[i] = true
				if pl.Owner[i] != int32(q) {
					t.Fatal("owner mismatch")
				}
			}
		}
		for i, s := range seen {
			if !s {
				t.Fatalf("body %d unowned", i)
			}
		}
		if slices.Max(pl.Inter) == 0 || pl.Tree.NumCells() == 0 {
			t.Fatal("empty plan")
		}
	}
}

func TestCrossModelChecksumsIdentical(t *testing.T) {
	w := Small()
	for _, procs := range []int{1, 3, 8} {
		m := mach(procs)
		plans := buildPlans(w, procs)
		var sums [3]float64
		for i, model := range core.AllModels() {
			sums[i] = RunWithPlans(model, m, w, plans).Checksum
		}
		if sums[0] != sums[1] || sums[1] != sums[2] {
			t.Fatalf("P=%d: checksums differ: %v %v %v", procs, sums[0], sums[1], sums[2])
		}
	}
}

func TestP1MatchesReferenceExactly(t *testing.T) {
	w := Small()
	ref := ReferenceChecksum(w)
	plans := buildPlans(w, 1)
	for _, model := range core.AllModels() {
		got := RunWithPlans(model, mach(1), w, plans).Checksum
		if got != ref {
			t.Fatalf("%v at P=1: %v != %v", model, got, ref)
		}
	}
}

func TestParallelMatchesReferenceApprox(t *testing.T) {
	w := Small()
	ref := ReferenceChecksum(w)
	got := RunWithPlans(core.SAS, mach(8), w, buildPlans(w, 8)).Checksum
	if rel := math.Abs(got-ref) / math.Abs(ref); rel > 1e-9 {
		t.Fatalf("P=8 drift: %v vs %v", got, ref)
	}
}

func TestDeterministicTiming(t *testing.T) {
	w := Small()
	for _, model := range core.AllModels() {
		plans := buildPlans(w, 5)
		a := RunWithPlans(model, mach(5), w, plans).Total
		b := RunWithPlans(model, mach(5), w, plans).Total
		if a != b {
			t.Fatalf("%v nondeterministic: %v vs %v", model, a, b)
		}
	}
}

func TestSpeedupAndContrasts(t *testing.T) {
	w := Default()
	p1Plans := buildPlans(w, 1)
	p16Plans := buildPlans(w, 16)
	m1, m16 := mach(1), mach(16)
	var t1, t16 [3]sim.Time
	var met16 [3]core.Metrics
	for i, model := range core.AllModels() {
		t1[i] = RunWithPlans(model, m1, w, p1Plans).Total
		met16[i] = RunWithPlans(model, m16, w, p16Plans)
		t16[i] = met16[i].Total
	}
	for i, model := range core.AllModels() {
		sp := float64(t1[i]) / float64(t16[i])
		if sp < 2 {
			t.Errorf("%v: speedup %.2f at P=16", model, sp)
		}
	}
	// SAS ahead of MP (replicated tree + allgather hurt MP).
	if !(t16[2] < t16[0]) {
		t.Errorf("SAS (%v) not faster than MP (%v) at P=16", t16[2], t16[0])
	}
	// SHMEM exchange cheaper than MP's.
	if !(met16[1].PhaseMax[sim.PhaseComm] < met16[0].PhaseMax[sim.PhaseComm]) {
		t.Errorf("SHMEM comm %v !< MP comm %v",
			met16[1].PhaseMax[sim.PhaseComm], met16[0].PhaseMax[sim.PhaseComm])
	}
	// SAS tree phase scales; MP's is replicated.
	if !(met16[2].PhaseMax[sim.PhaseTree] < met16[0].PhaseMax[sim.PhaseTree]) {
		t.Errorf("SAS tree %v !< MP tree %v",
			met16[2].PhaseMax[sim.PhaseTree], met16[0].PhaseMax[sim.PhaseTree])
	}
	// Memory: replicated vs shared.
	if !(met16[2].DataBytes < met16[0].DataBytes) {
		t.Error("SAS memory not smaller than MP")
	}
}

// TestMetricsExtras checks what the n-body code adds to the metrics every app
// reports: a data memory that MP replicates on each of its processes and
// CC-SAS holds once, and no remap weight.
func TestMetricsExtras(t *testing.T) {
	w := Small()
	plans := buildPlans(w, 4)
	met, sas := RunWithPlans(core.MP, mach(4), w, plans), RunWithPlans(core.SAS, mach(4), w, plans)
	if sas.DataBytes <= 0 || met.DataBytes != 4*sas.DataBytes {
		t.Fatalf("data bytes MP %d, CC-SAS %d: want one copy per process", met.DataBytes, sas.DataBytes)
	}
	if met.MovedWeight != 0 {
		t.Fatalf("moved weight %v without a remap", met.MovedWeight)
	}
	if met.Counters.MsgsSent == 0 {
		t.Error("MP run sent no messages")
	}
}

// TestSmallCountersPinned pins the simulated outcome of the Small workload —
// virtual time and every counter — per model at P = 1 and 8, as recorded from
// the commit before the force replay went memo-free (PR 14): a host-side
// optimisation of the charging loops must reproduce them exactly.
func TestSmallCountersPinned(t *testing.T) {
	pins := []struct {
		model core.Model
		procs int
		total sim.Time
		c     sim.Counters
	}{
		{core.MP, 1, 17775542, sim.Counters{CacheHits: 1475238, LocalMisses: 338, BytesSent: 61440, Collectives: 6}},
		{core.SHMEM, 1, 17775542, sim.Counters{CacheHits: 1475238, LocalMisses: 338, BytesSent: 61440, Collectives: 9}},
		{core.SAS, 1, 17757702, sim.Counters{CacheHits: 1467558, LocalMisses: 338, Collectives: 13}},
		{core.MP, 8, 3770419, sim.Counters{CacheHits: 1564320, LocalMisses: 2704, BytesSent: 62016, MsgsSent: 72, Collectives: 48}},
		{core.SHMEM, 8, 3542407, sim.Counters{CacheHits: 1564320, LocalMisses: 2704, BytesSent: 61440, MsgsSent: 168, Collectives: 72}},
		{core.SAS, 8, 3075328, sim.Counters{CacheHits: 1461016, LocalMisses: 1729, RemoteMisses: 5151, CohMisses: 5063, Collectives: 104}},
	}
	w := Small()
	plans := map[int][]*StepPlan{1: buildPlans(w, 1), 8: buildPlans(w, 8)}
	for _, pin := range pins {
		met := RunWithPlans(pin.model, mach(pin.procs), w, plans[pin.procs])
		if met.Total != pin.total || met.Counters != pin.c {
			t.Errorf("%v P=%d: total %d counters %+v, pinned %d %+v",
				pin.model, pin.procs, met.Total, met.Counters, pin.total, pin.c)
		}
	}
}
