package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"

	"o2k/internal/runner/diskcache"
)

// This file is the engine's bridge to the persistent cell cache
// (internal/runner/diskcache): which cells persist, how an outcome —
// a value or its memoized error — becomes a payload, and when a stored
// outcome may be trusted. The division of labor: diskcache owns entry
// integrity (atomic commit, checksum, version fence) and the engine owns
// outcome semantics (typed payloads, which errors are deterministic enough
// to persist). Every failure on this layer degrades to recomputation —
// the cache can make a run slower, never different.

// Codec serializes one cell type's successful value for the persistent
// cache. Only cells that carry a codec persist. Three codec families
// exist: MetricsCodec for run cells, and in experiments/cells.go the plan
// codecs that persist the structural tier (adaptation histories, reference
// simulations, partitioning decisions) behind the plan cells and the
// characteristics codec for the few numbers the tables read off a plan.
type Codec struct {
	// Kind classifies the cell for reporting ("metrics", "plan",
	// "characteristics"); it does not affect storage.
	Kind string
	// Encode turns the cell's value into a stable payload. An error means
	// "do not cache this value"; the run is unaffected.
	Encode func(v any) ([]byte, error)
	// Decode is the strict inverse. An error marks the entry corrupt: the
	// engine evicts it and recomputes.
	Decode func(data []byte) (any, error)
}

// CachedError is a deterministic cell failure restored from the persistent
// cache. It preserves both the original message and the original FAILED(…)
// table rendering, so a warm run's failed entries are byte-identical to the
// cold run that first produced them.
type CachedError struct {
	Msg   string // original err.Error()
	Label string // original FailLabel(err) rendering
}

func (e *CachedError) Error() string { return e.Msg }

// Outcome framing: the payload's first line tags what follows. A value
// payload is "v\n" + the codec's bytes verbatim (no re-encoding — codec
// output can be multi-megabyte plan text, and warm-run time is dominated by
// how many passes are made over it); an error payload is "e\n" + the JSON of
// cachedErrPayload. Anything else is corrupt.
var (
	valPrefix = []byte("v\n")
	errPrefix = []byte("e\n")
)

type cachedErrPayload struct {
	Msg   string `json:"msg"`
	Label string `json:"label"`
}

// persistable reports whether a cell outcome is a property of the cell
// itself rather than of this run's environment. Timeouts and cancellations
// depend on deadlines and signals — caching them would convert a one-off
// hiccup into a persistent wrong answer.
// Values, deterministic compute errors, and panics (the simulator is
// deterministic, so a panic reproduces) persist. A failed Prepare stage
// does not: it restates a dependency's outcome, which has its own entry.
func persistable(err error) bool {
	if err == nil {
		return true
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var pe *prepareError
	return !errors.As(err, &pe)
}

// SetCache attaches a persistent cache to the engine. It must be called
// before the first request (DoCell); a nil cache (the default) keeps the
// engine memory-only. Cells opt in one by one by setting Cell.Codec.
func (e *Engine) SetCache(c *diskcache.Cache) { e.cache = c }

// Cache returns the attached persistent cache, or nil.
func (e *Engine) Cache() *diskcache.Cache { return e.cache }

// diskLoad tries to satisfy key from the persistent cache. ok is false on
// any miss or failure — the caller computes as if no cache existed. A
// payload that passed diskcache's integrity checks but fails to decode here
// is reclassified as corrupt and evicted.
func (e *Engine) diskLoad(key string, codec *Codec) (val any, cerr error, ok bool) {
	if e.cache == nil || codec == nil {
		return nil, nil, false
	}
	payload, ok := e.cache.Get(key)
	if !ok {
		return nil, nil, false
	}
	switch {
	case bytes.HasPrefix(payload, valPrefix):
		v, err := codec.Decode(payload[len(valPrefix):])
		if err != nil {
			e.cache.Invalidate(key)
			return nil, nil, false
		}
		return v, nil, true
	case bytes.HasPrefix(payload, errPrefix):
		dec := json.NewDecoder(bytes.NewReader(payload[len(errPrefix):]))
		dec.DisallowUnknownFields()
		var ep cachedErrPayload
		if err := dec.Decode(&ep); err != nil {
			e.cache.Invalidate(key)
			return nil, nil, false
		}
		return nil, &CachedError{Msg: ep.Msg, Label: ep.Label}, true
	default:
		e.cache.Invalidate(key)
		return nil, nil, false
	}
}

// diskStore persists a freshly computed outcome, best-effort: encode
// failures and write failures are counted by the cache and otherwise
// ignored. Outcomes are not stored while the engine is cancelling — a
// custom cancellation cause is environmental even when it does not unwrap
// to context.Canceled.
func (e *Engine) diskStore(key string, codec *Codec, val any, cellErr error) {
	if e.cache == nil || codec == nil || e.ctx.Err() != nil || !persistable(cellErr) {
		return
	}
	var body []byte
	prefix := valPrefix
	if cellErr != nil {
		data, err := json.Marshal(cachedErrPayload{Msg: cellErr.Error(), Label: FailLabel(cellErr)})
		if err != nil {
			return
		}
		body, prefix = data, errPrefix
	} else {
		data, err := codec.Encode(val)
		if err != nil {
			return
		}
		body = data
	}
	payload := make([]byte, 0, len(prefix)+len(body))
	payload = append(payload, prefix...)
	payload = append(payload, body...)
	e.cache.Put(key, payload) // counted by the cache on failure
}
