package runner

import "o2k/internal/runner/diskcache"

// This file is the engine's bridge to the persistent cell cache
// (internal/runner/diskcache): which outcomes persist and when a stored one
// may be trusted. The division of labor: diskcache owns entry integrity
// (atomic commit, checksum, version fence) and the engine owns the rule —
// an outcome is written iff its cell has a codec and its error is nil. A
// failure is never persisted: the simulator is deterministic, so a failed
// cell recomputes to the same FAILED(<reason>) entry, and a timeout or a
// cancellation is a property of the run, not of the cell. Every failure on
// this layer degrades to recomputation — the cache can make a run slower,
// never different.

// Codec serializes one cell type's successful value for the persistent
// cache; an entry's payload is the codec's bytes verbatim. Only cells that
// carry a codec persist. Three codec families exist: MetricsCodec for run
// cells, and in experiments/cells.go the plan codecs that persist the
// structural tier (adaptation histories, reference simulations,
// partitioning decisions) behind the plan cells and the characteristics
// codec for the few numbers the tables read off a plan.
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
func (e *Engine) diskLoad(key string, codec *Codec) (val any, ok bool) {
	if e.cache == nil || codec == nil {
		return nil, false
	}
	payload, ok := e.cache.Get(key)
	if !ok {
		return nil, false
	}
	v, err := codec.Decode(payload)
	if err != nil {
		e.cache.Invalidate(key)
		return nil, false
	}
	return v, true
}

// diskStore persists a freshly computed value, best-effort: encode failures
// and write failures are counted by the cache and otherwise ignored. A
// failed outcome is not stored.
func (e *Engine) diskStore(key string, codec *Codec, val any, cellErr error) {
	if e.cache == nil || codec == nil || cellErr != nil {
		return
	}
	if payload, err := codec.Encode(val); err == nil {
		e.cache.Put(key, payload) // counted by the cache on failure
	}
}
