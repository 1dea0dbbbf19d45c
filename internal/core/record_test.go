package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

func TestMetricsRecordRoundtripExact(t *testing.T) {
	m := sampleMetrics()
	rec, err := EncodeMetricsRecord(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != 176 {
		t.Fatalf("record is %d bytes, want 22 words", len(rec))
	}
	got, err := DecodeMetricsRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if CellKey(got) != CellKey(m) {
		t.Fatalf("round trip changed the metrics:\n in  %+v\n out %+v", m, got)
	}
}

// A random value in every field survives the record: a field the codec
// forgot (say, a counter added to sim.Counters) would come back zero.
func TestMetricsRecordCoversEveryField(t *testing.T) {
	roundtrip := func(m Metrics) bool {
		if !finite(m.Checksum) || !finite(m.MovedWeight) {
			return true
		}
		rec, err := EncodeMetricsRecord(m)
		if err != nil {
			return false
		}
		got, err := DecodeMetricsRecord(rec)
		return err == nil && CellKey(got) == CellKey(m)
	}
	if err := quick.Check(roundtrip, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeMetricsRecordStrict(t *testing.T) {
	rec, err := EncodeMetricsRecord(sampleMetrics())
	if err != nil {
		t.Fatal(err)
	}
	nanAt := func(off int) []byte {
		b := bytes.Clone(rec)
		binary.LittleEndian.PutUint64(b[off:], math.Float64bits(math.NaN()))
		return b
	}
	for name, bad := range map[string][]byte{
		"trailing data":    append(bytes.Clone(rec), 0),
		"truncated":        rec[:len(rec)-1],
		"NaN checksum":     nanAt(recordSize - 16),
		"NaN moved weight": nanAt(recordSize - 8),
		"empty":            nil,
	} {
		if _, err := DecodeMetricsRecord(bad); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestEncodeMetricsRecordRejectsNonFinite(t *testing.T) {
	m := sampleMetrics()
	m.MovedWeight = math.Inf(1)
	if _, err := EncodeMetricsRecord(m); err == nil {
		t.Fatal("an infinite MovedWeight encoded; the cache would store an entry no decoder accepts")
	}
	m = sampleMetrics()
	m.Checksum = math.NaN()
	if _, err := EncodeMetricsRecord(m); err == nil {
		t.Fatal("a NaN checksum encoded")
	}
}
