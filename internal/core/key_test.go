package core

import (
	"encoding/json"
	"math"
	"net"
	"testing"
	"time"

	"o2k/internal/sim"
)

func TestCellKeyStableAndDiscriminating(t *testing.T) {
	type w struct {
		N    int
		Bias float64
	}
	a := CellKey("mesh", MP, w{24, 0.5}, 16)
	if a != CellKey("mesh", MP, w{24, 0.5}, 16) {
		t.Fatal("identical components hashed differently")
	}
	for _, other := range []string{
		CellKey("mesh", SHMEM, w{24, 0.5}, 16), // model
		CellKey("mesh", MP, w{25, 0.5}, 16),    // workload
		CellKey("mesh", MP, w{24, 0.5}, 32),    // procs
		CellKey("nbody", MP, w{24, 0.5}, 16),   // application
	} {
		if other == a {
			t.Fatalf("distinct cell collided with %q", a)
		}
	}
	if len(a) != 32 {
		t.Fatalf("key %q is not 32 hex chars", a)
	}
}

func TestCellKeyRejectsUnhashable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CellKey accepted a func component")
		}
	}()
	CellKey(func() {})
}

// Whatever encoding/json cannot encode, at the top level or nested, panics
// rather than being left out of the key; what it can encode, including
// embedded structs, renaming tags and custom marshalers, is keyed.
func TestCellKeyRejectsWhatItCannotWrite(t *testing.T) {
	for name, part := range map[string]any{
		"chan":           make(chan int),
		"complex":        complex(1, 2),
		"NaN":            math.NaN(),
		"nested +Inf":    struct{ F []float64 }{[]float64{math.Inf(1)}},
		"func in a map":  map[string]any{"f": func() {}},
		"struct map key": map[struct{ A int }]int{{1}: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CellKey accepted a %s component", name)
				}
			}()
			CellKey(part)
		}()
	}

	type embedded struct{ A int }
	type withEmbedded struct{ embedded }
	type renamed struct {
		A int `json:"a"`
	}
	for name, part := range map[string]any{
		"embedded struct":  withEmbedded{embedded{1}},
		"renaming tag":     renamed{1},
		"json.Number":      json.Number("1"),
		"custom marshaler": time.Date(2000, 1, 2, 3, 4, 5, 0, time.UTC),
		"TextMarshaler":    net.IP{127, 0, 0, 1},
	} {
		want, err := json.Marshal(part)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := CellKey(part); got != CellKey(json.RawMessage(want)) {
			t.Errorf("%s: key %s is not the key of its JSON text %s", name, got, want)
		}
	}
}

// CellKey over a Metrics digests its complete content: two runs of the same
// cell must produce equal digests — the cache-correctness tests assert this,
// and a mismatch would indicate nondeterminism in the simulator.
func TestMetricsFingerprint(t *testing.T) {
	m := Metrics{Model: SAS, Procs: 8, Total: 123 * sim.Microsecond,
		DataBytes: 4096, Checksum: 1.25, Extra: map[string]float64{"x": 1}}
	n := m
	if CellKey(m) != CellKey(n) {
		t.Fatal("equal metrics, different fingerprints")
	}
	n.Counters.MsgsSent++
	if CellKey(m) == CellKey(n) {
		t.Fatal("fingerprint ignored a counter change")
	}
}
