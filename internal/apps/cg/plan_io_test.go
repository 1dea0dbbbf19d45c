package cg

// Round-trip and corruption properties of the CG plan payloads (refined
// mesh + partitioning decision).

import (
	"reflect"
	"testing"
)

func TestPlanRoundTripDeepEqual(t *testing.T) {
	w := Small()
	m := BuildMesh(w)
	p := PlanForMesh(w, m, 4)
	p2, err := DecodePlan(EncodePlan(p), w, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, p2) {
		t.Fatal("cg plan round trip is not DeepEqual")
	}
	// The one-shot builder agrees with the two-stage path.
	if !reflect.DeepEqual(buildPlan(w, 4), p2) {
		t.Fatal("BuildPlan and the decoded plan disagree")
	}
}

func TestPlanRejectsWrongProcs(t *testing.T) {
	w := Small()
	m := BuildMesh(w)
	data := EncodePlan(PlanForMesh(w, m, 4))
	if _, err := DecodePlan(data, w, m, 8); err == nil {
		t.Fatal("plan for P=4 was accepted at P=8")
	}
}

// Any single bit flip must decode to an error or a value — never a panic.
func TestPlanBitFlipsNeverPanic(t *testing.T) {
	w := Small()
	m := BuildMesh(w)
	data := EncodePlan(PlanForMesh(w, m, 4))
	step := len(data)/150 + 1
	for pos := 0; pos < len(data); pos += step {
		c := append([]byte(nil), data...)
		c[pos] ^= 1 << (pos % 8)
		DecodePlan(c, w, m, 4) // must not panic
	}
}
