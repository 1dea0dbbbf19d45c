package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

func TestMetricsRecordRoundtripExact(t *testing.T) {
	for name, extra := range map[string]map[string]float64{
		"sample": sampleMetrics().Extra,
		"nil":    nil,
		"empty":  {},
	} {
		m := sampleMetrics()
		m.Extra = extra
		rec, err := EncodeMetricsRecord(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeMetricsRecord(rec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// CellKey tells a nil Extra from an empty one, so equality proves the
		// round trip is exact down to that.
		if CellKey(got) != CellKey(m) {
			t.Fatalf("%s: round trip changed the metrics:\n in  %+v\n out %+v", name, m, got)
		}
	}
}

// A random value in every field survives the record: a field the codec
// forgot (say, a counter added to sim.Counters) would come back zero.
func TestMetricsRecordCoversEveryField(t *testing.T) {
	roundtrip := func(m Metrics) bool {
		for k, v := range m.Extra {
			if !finite(v) {
				delete(m.Extra, k)
			}
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
	keysAt := recordFixed // first Extra key: "imbalance" before "remap"
	swapped := bytes.Clone(rec)
	copy(swapped[keysAt:], rec[keysAt+4+len("imbalance")+8:])
	copy(swapped[len(rec)-(4+len("imbalance")+8):], rec[keysAt:keysAt+4+len("imbalance")+8])
	nan := bytes.Clone(rec)
	binary.LittleEndian.PutUint64(nan[recordFixed-12:], math.Float64bits(math.NaN()))
	huge := bytes.Clone(rec[:recordFixed])
	binary.LittleEndian.PutUint32(huge[recordFixed-4:], math.MaxUint32)
	for name, bad := range map[string][]byte{
		"trailing data":  append(bytes.Clone(rec), 0),
		"truncated":      rec[:len(rec)-1],
		"short":          rec[:recordFixed-1],
		"keys unordered": swapped,
		"NaN checksum":   nan,
		"count too big":  huge,
		"empty":          nil,
	} {
		if _, err := DecodeMetricsRecord(bad); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestEncodeMetricsRecordRejectsNonFinite(t *testing.T) {
	m := sampleMetrics()
	m.Extra["remap"] = math.Inf(1)
	if _, err := EncodeMetricsRecord(m); err == nil {
		t.Fatal("an infinite Extra value encoded; the cache would store an entry no decoder accepts")
	}
	m = sampleMetrics()
	m.Checksum = math.NaN()
	if _, err := EncodeMetricsRecord(m); err == nil {
		t.Fatal("a NaN checksum encoded")
	}
}
