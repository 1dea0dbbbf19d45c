package mesh

// Round-trip and corruption properties of the snapshot codec and the front
// codecs — the formats the persistent plan cache stores.

import (
	"reflect"
	"testing"

	"o2k/internal/planio"
)

// adaptedSnapshot builds a snapshot with the properties the codec must
// preserve: green hanging-vertex closures and holes in the global ID space.
func adaptedSnapshot(t *testing.T) *Mesh {
	t.Helper()
	f := NewUnitSquare(6, 2)
	f.Adapt(DefaultFront(2).At(0))
	f.Adapt(DefaultFront(2).At(1))
	m := f.Snapshot()
	greens := 0
	for _, g := range m.Green {
		if g {
			greens++
		}
	}
	if greens == 0 {
		t.Fatal("test snapshot has no green closures — not exercising the codec")
	}
	if m.NumVertsTotal() == m.NumVertsUsed() {
		t.Fatal("test snapshot has no ID-space holes — not exercising the codec")
	}
	return m
}

func TestGlobalRoundTripDeepEqual(t *testing.T) {
	m := adaptedSnapshot(t)
	var pw planio.Writer
	m.AppendGlobal(&pw)
	m2, err := DecodeGlobal(pw.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, m2) {
		t.Fatal("global round trip is not DeepEqual")
	}
}

func TestFrontCodecsRoundTrip(t *testing.T) {
	front := DefaultFront(3)
	var pw planio.Writer
	front.AppendTo(&pw)
	s := planio.NewScanner(pw.Bytes())
	got, err := DecodeMovingFrontFrom(s)
	if err != nil {
		t.Fatal(err)
	}
	if got != front {
		t.Fatalf("front round trip: %+v != %+v", got, front)
	}
}

// flipSample yields ~n corrupted copies of data, each with one bit flipped,
// spread across the payload.
func flipSample(data []byte, n int) [][]byte {
	if len(data) == 0 {
		return nil
	}
	step := len(data) / n
	if step == 0 {
		step = 1
	}
	var out [][]byte
	for pos := 0; pos < len(data); pos += step {
		c := append([]byte(nil), data...)
		c[pos] ^= 1 << (pos % 8)
		out = append(out, c)
	}
	return out
}

// Any single bit flip must decode to an error or a value — never a panic.
// (Silent wrong values are the checksum layer's job; this is the total-
// decoder property the cache's corruption path depends on.)
func TestGlobalDecodeBitFlipsNeverPanic(t *testing.T) {
	m := adaptedSnapshot(t)
	var pw planio.Writer
	m.AppendGlobal(&pw)
	for _, c := range flipSample(pw.Bytes(), 200) {
		DecodeGlobal(c) // must not panic
	}
}

// DecodeGlobal is strict: anything but exactly one well-formed snapshot is an
// error.
func TestDecodeRejectsCorrupt(t *testing.T) {
	var pw planio.Writer
	adaptedSnapshot(t).AppendGlobal(&pw)
	good := string(pw.Bytes())
	cases := []string{
		"",
		"wrongmagic 2\n",
		"o2kmesh 3\nverts 3\n0 0\n1 0\n0 1\ntris 1\n0 1 2 0 0 -1\n", // any version but 2
		"o2kmesh 2\nverts -3\n",
		"o2kmesh 2\nverts 3\n0 0\n1 0\n0 1\ntris 1\n0 1 9 0 0 -1\n", // out-of-range vertex
		"o2kmesh 2\nverts 2\n0 0\n1 1\ntris 0\n",
		"o2kmesh 2\nverts 2\n0 0\nbogus\n",
		good + "trailing\n",
		good[:len(good)/2],
	}
	for i, c := range cases {
		if _, err := DecodeGlobal([]byte(c)); err == nil {
			t.Errorf("case %d: corrupt input accepted", i)
		}
	}
}
