package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"o2k/internal/runner"
	"o2k/internal/runner/diskcache"
)

// Metrics is the server's telemetry: cell lifecycle counters fed from the
// hook of each request the handlers make (runner.WithRequestHook, so the
// hot path carries no new instrumentation — the hook call sites the tracing
// subsystem already pays for are the whole cost, and every event the
// daemon's requests cause is counted once), plus HTTP admission counters
// maintained by the handler layer.
// All counters are monotonic; gauges (queue depth, inflight) are computed at
// scrape time from the admission state.
type Metrics struct {
	// One counter pair per runner.EventKind, indexed by the kind value.
	events  [numEventKinds]atomic.Int64
	eventNS [numEventKinds]atomic.Int64
	// Computes that ended in error (the failure signal a dashboard alerts on).
	computeErrs atomic.Int64

	rejectedQueue atomic.Int64 // admissions refused with 429 (queue full)
	rejectedDrain atomic.Int64 // admissions refused with 503 (draining)

	mu    sync.Mutex
	codes map[int]int64 // HTTP responses by status code
}

// numEventKinds sizes the per-kind counters from the engine's event-kind
// table: EventDiskHit is its last entry (TestMetricsCoverEveryEventKind), so
// /metrics has one line per kind and none for a kind that does not exist.
const numEventKinds = int(runner.EventDiskHit) + 1

func newMetrics() *Metrics {
	return &Metrics{codes: make(map[int]int64)}
}

// observeCell counts one cell event; every request hook the handlers
// install calls it.
func (m *Metrics) observeCell(ev runner.Event) {
	k := int(ev.Kind)
	if k >= len(m.events) {
		return
	}
	m.events[k].Add(1)
	m.eventNS[k].Add(int64(ev.Dur))
	if ev.Kind == runner.EventCompute && ev.Err != "" {
		m.computeErrs.Add(1)
	}
}

func (m *Metrics) observeHTTP(code int) {
	m.mu.Lock()
	m.codes[code]++
	m.mu.Unlock()
}

// write renders the Prometheus text exposition. queued/inflight/draining are
// the admission gauges sampled by the caller at scrape time.
func (m *Metrics) write(w io.Writer, queued, inflight int, draining bool) {
	fmt.Fprintf(w, "# HELP o2k_build_info Build identity of the serving binary (the cache version fence).\n")
	fmt.Fprintf(w, "# TYPE o2k_build_info gauge\n")
	fmt.Fprintf(w, "o2k_build_info{fingerprint=%q,schema=%q} 1\n", diskcache.Fingerprint(), diskcache.Schema)

	fmt.Fprintf(w, "# HELP o2k_cell_events_total Cell lifecycle events the requests caused, by kind.\n")
	fmt.Fprintf(w, "# TYPE o2k_cell_events_total counter\n")
	for k := range m.events {
		fmt.Fprintf(w, "o2k_cell_events_total{kind=%q} %d\n", runner.EventKind(k), m.events[k].Load())
	}
	fmt.Fprintf(w, "# HELP o2k_cell_event_seconds_total Wall time spanned by cell events, by kind.\n")
	fmt.Fprintf(w, "# TYPE o2k_cell_event_seconds_total counter\n")
	for k := range m.eventNS {
		fmt.Fprintf(w, "o2k_cell_event_seconds_total{kind=%q} %g\n", runner.EventKind(k), float64(m.eventNS[k].Load())/1e9)
	}
	fmt.Fprintf(w, "# HELP o2k_cell_compute_failures_total Computes that ended in error.\n")
	fmt.Fprintf(w, "# TYPE o2k_cell_compute_failures_total counter\n")
	fmt.Fprintf(w, "o2k_cell_compute_failures_total %d\n", m.computeErrs.Load())

	fmt.Fprintf(w, "# HELP o2k_http_requests_total HTTP responses by status code.\n")
	fmt.Fprintf(w, "# TYPE o2k_http_requests_total counter\n")
	m.mu.Lock()
	codes := make([]int, 0, len(m.codes))
	for c := range m.codes {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Fprintf(w, "o2k_http_requests_total{code=\"%d\"} %d\n", c, m.codes[c])
	}
	m.mu.Unlock()

	fmt.Fprintf(w, "# HELP o2k_admission_rejected_total Requests refused at admission, by reason.\n")
	fmt.Fprintf(w, "# TYPE o2k_admission_rejected_total counter\n")
	fmt.Fprintf(w, "o2k_admission_rejected_total{reason=\"queue_full\"} %d\n", m.rejectedQueue.Load())
	fmt.Fprintf(w, "o2k_admission_rejected_total{reason=\"draining\"} %d\n", m.rejectedDrain.Load())

	fmt.Fprintf(w, "# HELP o2k_requests_pending Admitted experiment requests: running plus queued.\n")
	fmt.Fprintf(w, "# TYPE o2k_requests_pending gauge\n")
	fmt.Fprintf(w, "o2k_requests_pending %d\n", queued)
	fmt.Fprintf(w, "# HELP o2k_requests_inflight Experiment requests holding a run slot.\n")
	fmt.Fprintf(w, "# TYPE o2k_requests_inflight gauge\n")
	fmt.Fprintf(w, "o2k_requests_inflight %d\n", inflight)
	fmt.Fprintf(w, "# HELP o2k_draining Whether the daemon is refusing new work pending shutdown.\n")
	fmt.Fprintf(w, "# TYPE o2k_draining gauge\n")
	d := 0
	if draining {
		d = 1
	}
	fmt.Fprintf(w, "o2k_draining %d\n", d)
}
