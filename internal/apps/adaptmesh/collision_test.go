package adaptmesh

import (
	"testing"

	"o2k/internal/core"
	"o2k/internal/mesh"
)

func TestCollisionWorkloadCrossModel(t *testing.T) {
	w := Small()
	coll := mesh.DefaultCollision(w.MaxLevel)
	w.Collision = &coll
	plans := BuildPlans(w, 4)
	ref := ReferenceChecksum(w)
	var sums [3]float64
	for i, model := range core.AllModels() {
		sums[i] = RunWithPlans(model, mach(4), w, plans).Checksum
	}
	if sums[0] != sums[1] || sums[1] != sums[2] {
		t.Fatalf("collision workload diverged: %v", sums)
	}
	if sums[0] == 0 || ref == 0 {
		t.Fatal("zero checksums")
	}
	// Two-front workload produces a different answer than single-front.
	single := RunWithPlans(core.SAS, mach(4), Small(), BuildPlans(Small(), 4)).Checksum
	if sums[2] == single {
		t.Fatal("collision workload identical to single front?")
	}
}
