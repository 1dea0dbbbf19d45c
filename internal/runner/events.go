package runner

import (
	"cmp"
	"context"
	"maps"
	"slices"
	"sync"
	"time"
)

// The engine's observability seam. The tracing subsystem (internal/obs)
// subscribes to cell lifecycle events through a Hook; the dependency points
// only one way — obs imports runner, never the reverse — so the engine stays
// free of any exporter concern. With no hook attached the only cost on the
// request path is one nil check per event site: time.Now is never called and
// no Event is ever constructed.

// EventKind classifies one cell lifecycle event.
type EventKind uint8

// The cell lifecycle events the engine reports.
const (
	// EventCompute is a cell's compute: a span from the request of a worker
	// slot to the outcome (queue wait included), or its Prepare's failure.
	EventCompute EventKind = iota
	// EventMemoHit is a request served from the in-memory cell map after
	// the cell completed (instant).
	EventMemoHit
	// EventDedup is a request that waited on the in-flight owner of its
	// cell: a span covering the wait.
	EventDedup
	// EventDiskHit is a cell restored from the persistent cache: a span
	// covering the disk load.
	EventDiskHit
)

var eventKindNames = [...]string{"compute", "memo-hit", "dedup", "disk-hit"}

// String returns the kind's lowercase name.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "event(?)"
}

// Event is one cell lifecycle event. Span kinds carry a start and duration
// in host wall time; instant kinds carry only the start.
type Event struct {
	Kind  EventKind
	Key   string // cell content hash (core.CellKey)
	Label string // human-readable cell description
	Start time.Time
	Dur   time.Duration
	Err   string // the outcome's failure message, "" on success
}

// Hook receives engine events. It is called synchronously from whatever
// goroutine produced the event — request goroutines and compute owners alike
// — so implementations must be safe for concurrent use and fast; anything
// expensive belongs behind a buffer.
type Hook func(Event)

// SetHook attaches an event hook to the engine. Like SetCache it must be
// called before the first Do; a nil hook (the default) keeps the engine
// silent and adds zero overhead to the request path.
func (e *Engine) SetHook(h Hook) { e.hook = h }

// reqHookKey carries a per-request Hook through a context (WithRequestHook).
type reqHookKey struct{}

// WithRequestHook returns a context that carries h as a per-request event
// hook. Every event a DoCell call fires for that request — and only that
// request — is also delivered to h, in addition to the engine-wide SetHook
// observer. Events fire synchronously in the requester's goroutine or in the
// publisher it created, and the publisher hands the hook on to the cells its
// Prepare stage requests, so a request hook sees exactly the cell lifecycle
// its request caused, with correct attribution, even while other requests
// share the engine — the seam the experiment server streams per-cell NDJSON
// from. A hook ctx already carries keeps receiving every event: h runs
// first, then the outer hook.
func WithRequestHook(ctx context.Context, h Hook) context.Context {
	if outer := requestHook(ctx); outer != nil {
		inner := h
		h = func(ev Event) { inner(ev); outer(ev) }
	}
	return context.WithValue(ctx, reqHookKey{}, h)
}

// TrackFailures returns a context that records every cell failing under it,
// keyed by cell key since labels repeat, and a function listing those
// failures by label, then key, an order no schedule changes. The ledger is a
// request hook: it composes with ctx's and sees failed dependencies too.
func TrackFailures(ctx context.Context) (context.Context, func() []Event) {
	var mu sync.Mutex
	failed := map[string]Event{}
	ctx = WithRequestHook(ctx, func(ev Event) {
		if ev.Err != "" {
			mu.Lock()
			failed[ev.Key] = ev
			mu.Unlock()
		}
	})
	return ctx, func() []Event {
		mu.Lock()
		defer mu.Unlock()
		return slices.SortedFunc(maps.Values(failed), func(a, b Event) int {
			return cmp.Or(cmp.Compare(a.Label, b.Label), cmp.Compare(a.Key, b.Key))
		})
	}
}

// requestHook extracts the per-request hook from ctx, nil when absent.
func requestHook(ctx context.Context) Hook {
	h, _ := ctx.Value(reqHookKey{}).(Hook)
	return h
}

// fire delivers an event to the engine-wide hook and the request hook.
func (e *Engine) fire(rh Hook, ev Event) {
	if e.hook != nil {
		e.hook(ev)
	}
	if rh != nil {
		rh(ev)
	}
}

// hooked reports whether any observer would receive an event, gating the
// time.Now calls on the request path exactly as the nil-hook check used to.
func (e *Engine) hooked(rh Hook) bool { return e.hook != nil || rh != nil }

// errMsg renders an outcome error for an Event.
func errMsg(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
