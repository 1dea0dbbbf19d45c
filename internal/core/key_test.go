package core

import (
	"testing"

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
