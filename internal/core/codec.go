package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// Stable JSON codec for Metrics, the payload type of the persistent cell
// cache (internal/runner/diskcache). The encoding must be lossless — a
// decoded Metrics renders the exact bytes in every table the original
// would — and that holds because every field is exported and every value
// round-trips exactly through encoding/json: integers (including the uint64
// traffic counters) are emitted as full-precision decimals, and float64s use
// Go's shortest-exact formatting, which parses back to the identical bit
// pattern. The codec tests pin this with a CellKey(Metrics) equality check.

// EncodeMetrics serializes m for the persistent cell cache. It fails only
// on non-finite floats (which the deterministic simulator never produces);
// the caller treats a failure as "do not cache".
func EncodeMetrics(m Metrics) ([]byte, error) {
	return json.Marshal(m)
}

// DecodeStrict decodes data as exactly one JSON value into v: unknown fields
// and trailing data are errors, so a payload written under a different
// schema is rejected instead of being half-read.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data")
	}
	return nil
}

// DecodeMetrics is the strict inverse of EncodeMetrics (DecodeStrict), so an
// entry written by a different Metrics schema that slipped past the cache's
// version fence is rejected (and recomputed).
func DecodeMetrics(data []byte) (Metrics, error) {
	var m Metrics
	if err := DecodeStrict(data, &m); err != nil {
		return Metrics{}, fmt.Errorf("core: decode metrics: %w", err)
	}
	return m, nil
}
