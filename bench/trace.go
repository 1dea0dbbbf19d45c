package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from this package into a layer's exported API.
// Parent is the index of the enclosing span (-1 at the root), Cell names the
// roster cell (or kernel, or tier pass) the call belongs to, so every span of
// one cell shares an identifier.
type span struct {
	Name       string
	Cell       string
	Start, End time.Duration // since the tracer's origin
	Parent     int
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing: that is the "spans off" side of bench.trace_overhead_frac. It is
// used from one goroutine only (the roster and kernels run sequentially).
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do times f as a span named name under the innermost open span.
func (t *tracer) do(name, cell string, f func()) time.Duration {
	if t == nil {
		s := time.Now()
		f()
		return time.Since(s)
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Cell: cell, Parent: parent, Start: time.Since(t.t0)})
	t.stack = append(t.stack, id)
	f()
	t.spans[id].End = time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
	return t.spans[id].End - t.spans[id].Start
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	if t == nil {
		return d
	}
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

// selfTimes returns each span's duration minus the part its children cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// write emits the spans as Chrome trace-event JSON (load in Perfetto or
// chrome://tracing). Host time only; one track.
func (t *tracer) write(path string) error {
	type ev struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := t.selfTimes()
	evs := make([]ev, len(t.spans))
	for i, s := range t.spans {
		evs[i] = ev{
			Name: s.Name, Cat: s.Cell, Ph: "X", Pid: 1, Tid: 1,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"cell": s.Cell, "parent": s.Parent, "self_us": float64(self[i]) / 1e3},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
