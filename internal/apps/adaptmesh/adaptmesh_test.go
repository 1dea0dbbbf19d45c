package adaptmesh

import (
	"math"
	"testing"

	"o2k/internal/core"
	"o2k/internal/machine"
	"o2k/internal/sim"
)

func mach(p int) *machine.Machine { return machine.MustNew(machine.Default(p)) }

func TestPlansDeterministic(t *testing.T) {
	w := Small()
	a := BuildPlans(w, 4)
	b := BuildPlans(w, 4)
	if len(a) != len(b) {
		t.Fatal("plan count differs")
	}
	for i := range a {
		if a[i].NV != b[i].NV || a[i].M.NumTris() != b[i].M.NumTris() {
			t.Fatalf("cycle %d differs structurally", i)
		}
		for p := 0; p < 4; p++ {
			if len(a[i].Clear[p]) != len(b[i].Clear[p]) {
				t.Fatalf("cycle %d clear list differs", i)
			}
		}
	}
}

func TestPlanInvariants(t *testing.T) {
	w := Small()
	plans := BuildPlans(w, 4)
	if len(plans) != w.Cycles {
		t.Fatalf("plan count %d", len(plans))
	}
	for ci, pl := range plans {
		if err := pl.M.Validate(); err != nil {
			t.Fatalf("cycle %d: %v", ci, err)
		}
		// Migration lists ascending, disjoint from LocalKeep duplicates.
		for s := 0; s < 4; s++ {
			for d := 0; d < 4; d++ {
				if s == d && len(pl.MoveSend[s][d]) > 0 {
					t.Fatalf("cycle %d: self-migration", ci)
				}
				for i := 1; i < len(pl.MoveSend[s][d]); i++ {
					if pl.MoveSend[s][d][i-1] >= pl.MoveSend[s][d][i] {
						t.Fatalf("cycle %d: MoveSend[%d][%d] not ascending", ci, s, d)
					}
				}
				// Every migrated vertex was previously owned by src.
				for _, v := range pl.MoveSend[s][d] {
					if pl.prevOwnerOf(v) != int32(s) {
						t.Fatalf("cycle %d: vertex %d not owned by claimed source", ci, v)
					}
				}
			}
		}
		if ci == 0 {
			for p := 0; p < 4; p++ {
				if len(pl.InterpOwned[p]) != 0 {
					t.Fatal("cycle 0 must not interpolate")
				}
			}
		}
		// Every owned new vertex appears in exactly one InterpOwned list.
		if ci > 0 {
			seen := map[int32]bool{}
			for p := 0; p < 4; p++ {
				for _, v := range pl.InterpOwned[p] {
					if seen[v] {
						t.Fatalf("vertex %d interpolated twice", v)
					}
					seen[v] = true
					if pl.prevOwnerOf(v) >= 0 {
						t.Fatalf("vertex %d interpolated but existed", v)
					}
					if pl.Dec.VertOwner[v] != int32(p) {
						t.Fatalf("vertex %d interpolated by non-owner", v)
					}
				}
			}
		}
	}
}

func TestCrossModelChecksumsIdentical(t *testing.T) {
	w := Small()
	for _, procs := range []int{1, 2, 4, 7} {
		m := mach(procs)
		plans := BuildPlans(w, procs)
		var sums [3]float64
		for i, model := range core.AllModels() {
			sums[i] = RunWithPlans(model, m, w, plans).Checksum
		}
		if sums[0] != sums[1] || sums[1] != sums[2] {
			t.Fatalf("P=%d: checksums differ: MP=%v SHMEM=%v SAS=%v",
				procs, sums[0], sums[1], sums[2])
		}
		if sums[0] == 0 {
			t.Fatalf("P=%d: zero checksum (field lost)", procs)
		}
	}
}

func TestP1MatchesReferenceExactly(t *testing.T) {
	w := Small()
	plans := BuildPlans(w, 1)
	ref := ReferenceChecksumWithPlans(w, plans)
	for _, model := range core.AllModels() {
		got := RunWithPlans(model, mach(1), w, plans).Checksum
		if got != ref {
			t.Fatalf("%v at P=1: %v != reference %v", model, got, ref)
		}
	}
}

func TestParallelMatchesReferenceApprox(t *testing.T) {
	w := Small()
	ref := ReferenceChecksum(w)
	got := RunWithPlans(core.SAS, mach(8), w, BuildPlans(w, 8)).Checksum
	if rel := math.Abs(got-ref) / math.Abs(ref); rel > 1e-9 {
		t.Fatalf("P=8 drifted from reference: %v vs %v (rel %v)", got, ref, rel)
	}
}

func TestVirtualTimeDeterministic(t *testing.T) {
	w := Small()
	for _, model := range core.AllModels() {
		m := mach(6)
		plans := BuildPlans(w, 6)
		t1 := RunWithPlans(model, m, w, plans).Total
		t2 := RunWithPlans(model, mach(6), w, plans).Total
		if t1 != t2 {
			t.Fatalf("%v: virtual time nondeterministic: %v vs %v", model, t1, t2)
		}
	}
}

func TestSpeedupWithProcs(t *testing.T) {
	w := Default()
	for _, model := range core.AllModels() {
		t1 := RunWithPlans(model, mach(1), w, BuildPlans(w, 1)).Total
		t16 := RunWithPlans(model, mach(16), w, BuildPlans(w, 16)).Total
		sp := float64(t1) / float64(t16)
		if sp < 2 {
			t.Errorf("%v: speedup at P=16 only %.2f (T1=%v T16=%v)", model, sp, t1, t16)
		}
	}
}

func TestPhaseBreakdownSane(t *testing.T) {
	w := Small()
	met := RunWithPlans(core.MP, mach(4), w, BuildPlans(w, 4))
	if met.PhaseMax[sim.PhaseCompute] == 0 {
		t.Error("no compute time recorded")
	}
	if met.PhaseMax[sim.PhaseComm] == 0 {
		t.Error("MP run recorded no communication")
	}
	if met.PhaseMax[sim.PhaseRemap] == 0 {
		t.Error("no remap time recorded")
	}
	if met.PhaseMax[sim.PhaseMark] == 0 || met.PhaseMax[sim.PhasePartition] == 0 {
		t.Error("adaptation phases missing")
	}
	var sum sim.Time
	for _, ph := range met.PhaseMax {
		sum += ph
	}
	if sum < met.Total/2 {
		t.Errorf("phase attribution lost most of the time: phases=%v total=%v", sum, met.Total)
	}
}

func TestModelContrasts(t *testing.T) {
	// The qualitative relationships the study predicts, at moderate scale.
	w := Default()
	m := mach(16)
	plans := BuildPlans(w, 16)
	var met [3]core.Metrics
	for i, model := range core.AllModels() {
		met[i] = RunWithPlans(model, m, w, plans)
	}
	mpM, shM, saM := met[0], met[1], met[2]

	// Remap: SAS migrates nothing, MP migrates most.
	if !(saM.PhaseMax[sim.PhaseRemap] < shM.PhaseMax[sim.PhaseRemap]) ||
		!(shM.PhaseMax[sim.PhaseRemap] <= mpM.PhaseMax[sim.PhaseRemap]) {
		t.Errorf("remap ordering violated: MP=%v SHMEM=%v SAS=%v",
			mpM.PhaseMax[sim.PhaseRemap], shM.PhaseMax[sim.PhaseRemap], saM.PhaseMax[sim.PhaseRemap])
	}
	// Explicit communication: SHMEM cheaper than MP (lower software overhead).
	if !(shM.PhaseMax[sim.PhaseComm] < mpM.PhaseMax[sim.PhaseComm]) {
		t.Errorf("SHMEM comm %v !< MP comm %v",
			shM.PhaseMax[sim.PhaseComm], mpM.PhaseMax[sim.PhaseComm])
	}
	// Memory: SAS < SHMEM < MP.
	if !(saM.DataBytes < shM.DataBytes && shM.DataBytes < mpM.DataBytes) {
		t.Errorf("memory ordering violated: %d %d %d",
			mpM.DataBytes, shM.DataBytes, saM.DataBytes)
	}
	// MP must actually send messages; SAS must take remote/coherence misses.
	if mpM.Counters.MsgsSent == 0 || saM.Counters.RemoteMisses == 0 {
		t.Error("expected traffic signatures missing")
	}
}

func TestNoRemapMovesMore(t *testing.T) {
	w := Default()
	w2 := w
	w2.NoRemap = true
	a := BuildPlans(w, 8)
	b := BuildPlans(w2, 8)
	var withRemap, without float64
	for i := range a {
		withRemap += a[i].Remap.TotalW
		without += b[i].Remap.TotalW
	}
	if withRemap > without {
		t.Fatalf("PLUM remap moved more (%v) than identity (%v)", withRemap, without)
	}
}

func TestMetricsExtras(t *testing.T) {
	w := Small()
	met := RunWithPlans(core.SAS, mach(4), w, BuildPlans(w, 4))
	for _, k := range []string{"avg_tris", "avg_verts", "avg_edgecut", "max_imbalance"} {
		if met.Extra[k] <= 0 {
			t.Errorf("extra %q = %v", k, met.Extra[k])
		}
	}
	if met.Extra["max_imbalance"] > 2.0 {
		t.Errorf("imbalance too high: %v", met.Extra["max_imbalance"])
	}
}
