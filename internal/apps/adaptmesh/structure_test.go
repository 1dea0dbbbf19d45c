package adaptmesh

// Round-trip and corruption properties of the two plan-cache payloads: the
// adaptation structure and the per-P partitioning decisions. The decoded
// forms must be reflect.DeepEqual to the built ones — the invariant that
// makes a warm run's plans interchangeable with a cold run's.

import (
	"bytes"
	"reflect"
	"testing"
)

func TestStructureRoundTripDeepEqual(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    Workload
	}{
		{"single front", Small()},
		{"zero cycles", func() Workload {
			w := Small()
			w.Cycles = 0
			return w
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := BuildStructure(tc.w)
			st2, err := DecodeStructure(EncodeStructure(st, tc.w), tc.w)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(st, st2) {
				t.Fatal("structure round trip is not DeepEqual")
			}
		})
	}
}

func TestStructureRejectsWrongWorkload(t *testing.T) {
	w := Small()
	data := EncodeStructure(BuildStructure(w), w)
	w2 := w
	w2.Front.Radius += 0.01
	if _, err := DecodeStructure(data, w2); err == nil {
		t.Fatal("structure for a different front was accepted")
	}
	w3 := w
	w3.Cycles++
	if _, err := DecodeStructure(data, w3); err == nil {
		t.Fatal("structure with a different cycle count was accepted")
	}
	// An entry of a front kind this build does not write (the deleted
	// two-front workload's "collision") reads as bad, so it is recomputed.
	other := bytes.Replace(data, []byte("\nfront\n"), []byte("\ncollision\n"), 1)
	if bytes.Equal(other, data) {
		t.Fatal("the structure payload has no front kind line")
	}
	if _, err := DecodeStructure(other, w); err == nil {
		t.Fatal("structure with another front kind was accepted")
	}
}

func TestPlansRoundTripDeepEqual(t *testing.T) {
	w := Small()
	st := BuildStructure(w)
	plans := st.Plans(4, false)
	plans2, err := st.DecodePlans(EncodePlans(plans, 4), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plans, plans2) {
		t.Fatal("plan round trip is not DeepEqual")
	}
	// The one-shot builder and the structure-then-decode path agree too —
	// the equality the plan cache's two-tier split rests on.
	if !reflect.DeepEqual(BuildPlans(w, 4), plans2) {
		t.Fatal("BuildPlans and decoded plans disagree")
	}
}

func TestPlansRejectWrongProcs(t *testing.T) {
	st := BuildStructure(Small())
	data := EncodePlans(st.Plans(4, false), 4)
	if _, err := st.DecodePlans(data, 8); err == nil {
		t.Fatal("plans for P=4 were accepted at P=8")
	}
}

// Any single bit flip in either payload must decode to an error or a value —
// never a panic (the property the cache's corrupt-entry path depends on).
func TestStructureAndPlanBitFlipsNeverPanic(t *testing.T) {
	w := Small()
	st := BuildStructure(w)
	for _, data := range [][]byte{
		EncodeStructure(st, w),
		EncodePlans(st.Plans(4, false), 4),
	} {
		step := len(data)/150 + 1
		for pos := 0; pos < len(data); pos += step {
			c := append([]byte(nil), data...)
			c[pos] ^= 1 << (pos % 8)
			if st2, err := DecodeStructure(c, w); err == nil && st2 != nil {
				st2.Plans(2, false) // a silently-accepted flip must still derive plans
			}
			st.DecodePlans(c, 4) // must not panic
		}
	}
}
