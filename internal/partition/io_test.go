package partition

// Round-trip and corruption properties of the decomposition codec.

import (
	"reflect"
	"slices"
	"testing"

	"o2k/internal/mesh"
	"o2k/internal/planio"
)

func testDecomp(t *testing.T, nparts int) (*mesh.Mesh, *Decomp) {
	t.Helper()
	f := mesh.NewUnitSquare(6, 2)
	f.Adapt(mesh.DefaultFront(2).At(0))
	m := f.Snapshot()
	nt := m.NumTris()
	xs := make([]float64, nt)
	ys := make([]float64, nt)
	wt := make([]float64, nt)
	for i := 0; i < nt; i++ {
		xs[i], ys[i] = m.Centroid(i)
		wt[i] = 1
	}
	owner := RCB(xs, ys, wt, nparts)
	return m, NewDecomp(m, owner, nparts)
}

func TestDecompRoundTripDeepEqual(t *testing.T) {
	m, d := testDecomp(t, 4)
	var pw planio.Writer
	d.AppendTo(&pw)
	s := planio.NewScanner(pw.Bytes())
	d2, err := DecodeDecompFrom(s, m)
	if err != nil {
		t.Fatal(err)
	}
	s.Done()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, d2) {
		t.Fatal("decomp round trip is not DeepEqual")
	}
}

// Touches and TouchedBy are exactly the non-empty pattern of Border, in
// ascending order and without self entries, on a built decomposition and on
// its codec round trip alike.
func TestPeerListsMatchBorder(t *testing.T) {
	for _, nparts := range []int{1, 2, 7, 64} {
		m, d := testDecomp(t, nparts)
		var pw planio.Writer
		d.AppendTo(&pw)
		d2, err := DecodeDecompFrom(planio.NewScanner(pw.Bytes()), m)
		if err != nil {
			t.Fatal(err)
		}
		for _, dd := range []*Decomp{d, d2} {
			for p := 0; p < nparts; p++ {
				var touches, touchedBy []int
				for q := 0; q < nparts; q++ {
					if len(dd.Border[p][q]) > 0 {
						touches = append(touches, q)
					}
					if len(dd.Border[q][p]) > 0 {
						touchedBy = append(touchedBy, q)
					}
				}
				if !slices.Equal(dd.Touches[p], touches) || !slices.Equal(dd.TouchedBy[p], touchedBy) {
					t.Fatalf("P=%d proc %d: Touches %v TouchedBy %v, Border pattern %v %v",
						nparts, p, dd.Touches[p], dd.TouchedBy[p], touches, touchedBy)
				}
				if slices.Contains(touches, p) || slices.Contains(touchedBy, p) {
					t.Fatalf("P=%d proc %d borders itself", nparts, p)
				}
			}
		}
	}
}

// Any single bit flip must decode to an error or a value — never a panic.
func TestDecompDecodeBitFlipsNeverPanic(t *testing.T) {
	m, d := testDecomp(t, 4)
	var pw planio.Writer
	d.AppendTo(&pw)
	data := pw.Bytes()
	step := len(data)/200 + 1
	for pos := 0; pos < len(data); pos += step {
		c := append([]byte(nil), data...)
		c[pos] ^= 1 << (pos % 8)
		DecodeDecompFrom(planio.NewScanner(c), m) // must not panic
	}
}
