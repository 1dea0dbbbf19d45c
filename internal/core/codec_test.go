package core

import (
	"math"
	"testing"

	"o2k/internal/sim"
)

// sampleMetrics exercises every field, including values that stress JSON
// round-tripping: large uint64 counters and floats with no short decimal
// form.
func sampleMetrics() Metrics {
	m := Metrics{
		Model:     SAS,
		Procs:     64,
		Total:     sim.Time(1234567890123),
		DataBytes: 9 << 20,
		Checksum:  math.Pi * 1e6,
		Extra:     map[string]float64{"imbalance": 1.0 / 3.0, "remap": 0.1},
	}
	for ph := sim.Phase(0); ph < sim.NumPhases; ph++ {
		m.PhaseMax[ph] = sim.Time(1e9 + int64(ph)*7919)
		m.PhaseAvg[ph] = sim.Time(9e8 + int64(ph)*104729)
	}
	m.Counters = sim.Counters{
		CacheHits:    1 << 60, // beyond float64's exact-integer range
		LocalMisses:  3,
		RemoteMisses: 5,
		CohMisses:    7,
		BytesSent:    math.MaxUint64,
		MsgsSent:     11,
		Collectives:  13,
		LockOps:      17,
		AllocBytes:   19,
	}
	return m
}

func TestMetricsCodecRoundtripExact(t *testing.T) {
	m := sampleMetrics()
	data, err := EncodeMetrics(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMetrics(data)
	if err != nil {
		t.Fatal(err)
	}
	// CellKey digests the complete content, so equality here proves the
	// round-trip is bit-exact — the property the persistent cache's
	// byte-identity guarantee rests on.
	if CellKey(got) != CellKey(m) {
		t.Fatalf("round-trip changed the metrics:\n in  %+v\n out %+v", m, got)
	}
	if got.Counters.BytesSent != math.MaxUint64 || got.Counters.CacheHits != 1<<60 {
		t.Fatalf("uint64 counters lost precision: %+v", got.Counters)
	}
	if got.Checksum != m.Checksum || got.Extra["imbalance"] != 1.0/3.0 {
		t.Fatalf("float64 fields lost precision: %+v", got)
	}
}

func TestDecodeMetricsStrict(t *testing.T) {
	m := sampleMetrics()
	data, err := EncodeMetrics(m)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"unknown field": []byte(`{"Model":2,"Bogus":1}`),
		"trailing data": append(append([]byte{}, data...), []byte(`{"Model":0}`)...),
		"truncated":     data[:len(data)/2],
		"garbage":       []byte("xx"),
		"empty":         nil,
	} {
		if _, err := DecodeMetrics(bad); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestEncodeMetricsRejectsNonFinite(t *testing.T) {
	m := sampleMetrics()
	m.Checksum = math.NaN()
	if _, err := EncodeMetrics(m); err == nil {
		t.Fatal("NaN metrics encoded; the cache would store an unreadable entry")
	}
}
