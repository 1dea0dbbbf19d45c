package runner

import (
	"fmt"

	"o2k/internal/core"
)

// Res is the outcome of one metrics cell: the run's metrics, or the error
// that kept them from being produced. Experiment builders render a failed
// Res as a FAILED(<reason>) table entry (see FailLabel) and keep going —
// one bad cell degrades one entry, never the whole run.
type Res struct {
	M   core.Metrics
	Err error
}

// Failed reports whether the cell produced an error instead of metrics.
func (r Res) Failed() bool { return r.Err != nil }

// MetricsCodec persists metrics run cells in the on-disk cache: the strict
// lossless JSON codec from core (see core/codec.go for why the round-trip
// is exact).
var MetricsCodec = &Codec{
	Kind: "metrics",
	Encode: func(v any) ([]byte, error) {
		m, ok := v.(core.Metrics)
		if !ok {
			return nil, fmt.Errorf("runner: metrics cell holds %T", v)
		}
		return core.EncodeMetrics(m)
	},
	Decode: func(data []byte) (any, error) { return core.DecodeMetrics(data) },
}
