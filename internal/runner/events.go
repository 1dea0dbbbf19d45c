package runner

import (
	"context"
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
	// EventDiskHit is a cell's value restored from the persistent cache: a
	// span covering the disk load.
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

// WithRequestHook returns a context carrying h, in place of any hook ctx
// carries, as the hook of every DoCell request made under it. h receives
// exactly the events its request caused, its Prepare stages' nested requests
// included, alongside the SetHook observer, even while other requests share
// the engine: the seam the server streams per-cell NDJSON from. Hooks only
// observe; a publisher may fire after its request has returned.
func WithRequestHook(ctx context.Context, h Hook) context.Context {
	return context.WithValue(ctx, reqHookKey{}, h)
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
