package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"testing/quick"
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

// jsonKey is CellKey as encoding/json computes it: the reference the walk
// must reproduce byte for byte.
func jsonKey(parts ...any) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, p := range parts {
		if err := enc.Encode(p); err != nil {
			panic(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// keyShapes has a field of every shape a key component may take. quick
// fills Gen; an interface field it cannot fill.
type keyShapes struct {
	Gen    keyGen
	Any    any
	Skip   int `json:"-"`
	hidden int
}

type keyGen struct {
	B      bool
	I      int
	I8     int8
	U64    uint64
	F32    float32
	F64    float64
	S      string
	Bytes  []byte
	Ints   []int
	Arr    [3]int16
	Ptr    *float64
	ByName map[string]float64
	ByInt  map[int]string
	ByUint map[uint8]bool
	Nested struct{ X, Y float64 }
	Model  Model
}

// The walk writes what encoding/json writes, so every key is the one
// encoding/json gives: random values of every shape, edge-case floats and
// strings, and nil against empty.
func TestCellKeyMatchesJSONText(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fixed := []any{
		nil, true, 0, -1, uint64(math.MaxUint64), "", "mesh/run",
		"<&>\"\\\b\f\n\r\t\x00\x1f\x7f\u2028\u2029é\xff\xfe", []byte(nil), []byte{}, []byte("abc"),
		[]int(nil), []int{}, map[string]int(nil), map[string]int{}, (*int)(nil),
		map[int]int{10: 1, 9: 2, -1: 3}, // sorted as strings: "-1", "10", "9"
		sampleMetrics(), Metrics{}, SAS,
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1.5, 1e-6, 1e-7, 9.99e-7, 1e20, 1e21, 123456789e13,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 1.0 / 3, math.Pi * 1e-300} {
		fixed = append(fixed, f)
		if f32 := float32(f); !math.IsInf(float64(f32), 0) {
			fixed = append(fixed, f32)
		}
	}
	for i, v := range fixed {
		if CellKey(v) != jsonKey(v) {
			t.Errorf("value %d (%T %v): walk and encoding/json disagree", i, v, v)
		}
	}
	if CellKey(fixed...) != jsonKey(fixed...) {
		t.Error("all values as one key: walk and encoding/json disagree")
	}
	for i := 0; i < 500; i++ {
		v, ok := quick.Value(reflect.TypeFor[keyGen](), rng)
		if !ok {
			t.Fatal("quick.Value failed")
		}
		g := v.Interface().(keyGen)
		if g.F64 = math.Float64frombits(rng.Uint64()); math.IsNaN(g.F64) || math.IsInf(g.F64, 0) {
			g.F64 = 0
		}
		k := keyShapes{Gen: g, Any: []any{g.S, g.F32, nil, map[string]any{"n": g.I}}[i%4], Skip: i, hidden: i}
		if CellKey("shapes", k, i) != jsonKey("shapes", k, i) {
			t.Fatalf("walk and encoding/json disagree on %+v", k)
		}
	}
}

func TestCellKeyRejectsWhatItCannotWrite(t *testing.T) {
	type embedded struct{ A int }
	type withEmbedded struct{ embedded }
	type renamed struct {
		A int `json:"a"`
	}
	for name, part := range map[string]any{
		"chan":             make(chan int),
		"complex":          complex(1, 2),
		"NaN":              math.NaN(),
		"nested +Inf":      struct{ F []float64 }{[]float64{math.Inf(1)}},
		"func in a map":    map[string]any{"f": func() {}},
		"struct map key":   map[struct{ A int }]int{},
		"embedded struct":  withEmbedded{},
		"renaming tag":     renamed{},
		"json.Number":      json.Number("1"),
		"custom marshaler": time.Time{},
		"TextMarshaler":    net.IP{127, 0, 0, 1},
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
}
