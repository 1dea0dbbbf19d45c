package core

import (
	"bytes"
	"testing"
)

// Seed corpora live in testdata/fuzz/<target>/. Run a target with
// `go test -run '^$' -fuzz '^FuzzMetricsRecord$' -fuzztime 10s ./internal/core`.

// Any record the decoder accepts re-encodes to the same bytes: the record is
// canonical, so a cache entry has one valid payload per Metrics value.
func FuzzMetricsRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMetricsRecord(data)
		if err != nil {
			return
		}
		again, err := EncodeMetricsRecord(m)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("record re-encodes to different bytes:\n in  %x\n out %x", data, again)
		}
	})
}

// DecodeStrict never panics, a Metrics document it accepts survives a JSON
// round trip unchanged, and its CellKey is the one encoding/json gives (the
// fuzzer's strings reach the walk's escaping through Extra's keys).
func FuzzDecodeStrict(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Metrics
		if DecodeStrict(data, &m) != nil {
			return
		}
		if CellKey(m) != jsonKey(m) {
			t.Fatalf("walk and encoding/json disagree on %+v", m)
		}
		doc, err := EncodeMetrics(m)
		if err != nil {
			t.Fatalf("decoded metrics do not re-encode: %v", err)
		}
		got, err := DecodeMetrics(doc)
		if err != nil {
			t.Fatalf("re-encoded metrics do not decode: %v\n%s", err, doc)
		}
		if CellKey(got) != CellKey(m) {
			t.Fatalf("JSON round trip changed the metrics:\n in  %+v\n out %+v", m, got)
		}
	})
}
