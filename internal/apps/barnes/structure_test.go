package barnes

// Round-trip and corruption properties of the reference-simulation payload.

import (
	"reflect"
	"testing"

	"o2k/internal/planio"
)

func TestStructureRoundTripDeepEqual(t *testing.T) {
	w := Workload{N: 200, Steps: 2, Theta: 0.7, Seed: 1}
	st := BuildStructure(w)
	st2, err := DecodeStructure(EncodeStructure(st), w)
	if err != nil {
		t.Fatal(err)
	}
	// The build walked every step; the decoded record walks on demand, and
	// must arrive at the same accelerations and the same stream.
	for _, ss := range st2.Steps {
		ss.Walk.Ensure()
	}
	// Compare before deriving plans: the Morton-order memo is computed on
	// demand and is not part of the serialized form.
	if !reflect.DeepEqual(st, st2) {
		t.Fatal("structure round trip is not DeepEqual")
	}
	// Plans derived from the decoded structure match the built ones exactly.
	if !reflect.DeepEqual(st.Plans(4), st2.Plans(4)) {
		t.Fatal("plans derived from the decoded structure differ")
	}
}

func TestStructureRejectsWrongWorkload(t *testing.T) {
	w := Workload{N: 200, Steps: 2, Theta: 0.7, Seed: 1}
	data := EncodeStructure(BuildStructure(w))
	w2 := w
	w2.N++
	if _, err := DecodeStructure(data, w2); err == nil {
		t.Fatal("structure for a different N was accepted")
	}
	w3 := w
	w3.Steps++
	if _, err := DecodeStructure(data, w3); err == nil {
		t.Fatal("structure with a different step count was accepted")
	}
}

// Any single bit flip must decode to an error or a value — never a panic.
func TestStructureBitFlipsNeverPanic(t *testing.T) {
	w := Workload{N: 120, Steps: 2, Theta: 0.7, Seed: 1}
	data := EncodeStructure(BuildStructure(w))
	step := len(data)/150 + 1
	for pos := 0; pos < len(data); pos += step {
		c := append([]byte(nil), data...)
		c[pos] ^= 1 << (pos % 8)
		if st, err := DecodeStructure(c, w); err == nil && st != nil {
			st.Plans(2) // a silently-accepted flip must still derive plans
		}
	}
}

// The serialized forms carry their schema words up front, so a payload of
// one kind fed to the other decoder errors cleanly.
func TestStructureRejectsForeignPayload(t *testing.T) {
	var pw planio.Writer
	pw.Word("o2kdecomp")
	pw.Int(1)
	pw.End()
	if _, err := DecodeStructure(pw.Bytes(), Workload{N: 10, Steps: 1}); err == nil {
		t.Fatal("foreign payload accepted")
	}
}
