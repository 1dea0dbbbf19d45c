// Package server is the long-running experiment-serving daemon behind
// `o2kbench serve` (DESIGN.md §5.10): an HTTP/JSON front end over the same
// engine, registry, disk cache, and lease machinery the one-shot CLI uses.
// It knows no application and parses no model name: a POST body is an
// experiments.Request, and a cell URL is resolved against the application
// table in internal/experiments.
// Many concurrent clients share one memoized cell map — N identical
// submissions cost one simulation — and a fleet of daemons or `-workers`
// processes sharing a cache directory coordinates through the existing
// lease files, so each cold cell is computed exactly once machine-wide.
//
// The API, under /v1:
//
//	POST /v1/experiments            submit a registry experiment; the response
//	                                streams one NDJSON line per cell event and
//	                                ends with a result line whose "output"
//	                                field is byte-identical to the CLI's stdout
//	GET  /v1/cells/{app}/{model}/{procs}  resolve one simulation cell
//	                                (memo → disk → compute, honoring leases)
//	GET  /v1/report                 the engine's live run report
//	GET  /v1/cache                  persistent-cache counters; ?verify=1 scans
//	GET  /healthz                   liveness; 503 once draining
//	GET  /metrics                   Prometheus text exposition
//
// Admission is a bounded queue: MaxInflight requests run concurrently,
// MaxQueue more wait, and anything beyond that is refused with 429 so a
// traffic spike degrades to fast rejections instead of unbounded goroutine
// pileup. Each admitted request runs under its own context (the HTTP request
// context), so a client disconnect aborts exactly the cells no other live
// request still wants — the engine retires those and recomputes them on the
// next ask. Drain() flips the daemon to refusing new work while in-flight
// requests finish and commit their cells to the disk cache.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"o2k/internal/core"
	"o2k/internal/experiments"
	"o2k/internal/runner"
	"o2k/internal/runner/diskcache"
)

// Config assembles a Server. Engine is required; the zero value of every
// other field selects a sensible default.
type Config struct {
	// Engine resolves every cell; its persistent cache (Engine.Cache, nil
	// when the daemon runs memory-only) is surfaced through /v1/cache.
	Engine *runner.Engine
	// MaxInflight bounds concurrently running experiment/cell requests
	// (default 4). Cell concurrency *within* a request is still the engine's
	// -jobs pool; this bounds how many requests contend for it.
	MaxInflight int
	// MaxQueue bounds requests waiting for a run slot (default 16); beyond
	// MaxInflight+MaxQueue, admission answers 429.
	MaxQueue int
}

// Server is the HTTP handler. Create it with New. It observes the engine
// through the hook of each request it makes, so /metrics counts the cells
// the daemon's requests asked for.
type Server struct {
	eng      *runner.Engine
	slots    chan struct{}
	limit    int64        // MaxInflight + MaxQueue
	pending  atomic.Int64 // admitted requests: running + queued
	draining atomic.Bool
	met      *Metrics
	mux      *http.ServeMux
}

// New returns a Server over cfg.Engine.
func New(cfg Config) *Server {
	inflight := cfg.MaxInflight
	if inflight <= 0 {
		inflight = 4
	}
	queue := cfg.MaxQueue
	if queue <= 0 {
		queue = 16
	}
	s := &Server{
		eng:   cfg.Engine,
		slots: make(chan struct{}, inflight),
		limit: int64(inflight + queue),
		met:   newMetrics(),
		mux:   http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/cells/{app}/{model}/{procs}", s.handleCell)
	s.mux.HandleFunc("GET /v1/report", s.handleReport)
	s.mux.HandleFunc("GET /v1/cache", s.handleCache)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Drain flips the daemon to shutdown mode: /healthz answers 503 and new
// work is refused, while requests already admitted run to completion —
// their cells commit to the disk cache because the engine's context is the
// process's, not any request's.
func (s *Server) Drain() { s.draining.Store(true) }

// statusWriter captures the response code for the HTTP metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards streaming flushes so NDJSON lines reach the client as the
// cells land, not when the response ends.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w}
	s.mux.ServeHTTP(sw, r)
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	s.met.observeHTTP(sw.code)
}

// writeIndented writes v as the indented JSON document of the read-only
// telemetry endpoints.
func writeIndented(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// jsonError writes a JSON error document with the given status.
func jsonError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// acquire admits one request through the bounded queue: it returns a release
// function, or writes the refusal (429 queue full, 503 draining) and returns
// nil. A request whose client leaves while queued releases silently.
func (s *Server) acquire(w http.ResponseWriter, r *http.Request) func() {
	if s.draining.Load() {
		s.met.rejectedDrain.Add(1)
		jsonError(w, http.StatusServiceUnavailable, "draining")
		return nil
	}
	if n := s.pending.Add(1); n > s.limit {
		s.pending.Add(-1)
		s.met.rejectedQueue.Add(1)
		w.Header().Set("Retry-After", "1")
		jsonError(w, http.StatusTooManyRequests, "admission queue full (%d pending)", n-1)
		return nil
	}
	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots; s.pending.Add(-1) }
	case <-r.Context().Done():
		s.pending.Add(-1)
		return nil
	}
}

// streamLine is one NDJSON line of an experiment response.
type streamLine struct {
	Type   string  `json:"type"`             // "cell", "result", or "error"
	Kind   string  `json:"kind,omitempty"`   // cell: event kind (compute, memo-hit, …)
	Key    string  `json:"key,omitempty"`    // cell: content hash
	Label  string  `json:"label,omitempty"`  // cell: human-readable description
	Ms     float64 `json:"ms,omitempty"`     // cell: event span in milliseconds
	Err    string  `json:"err,omitempty"`    // cell: outcome error
	Exit   int     `json:"exit"`             // result: the CLI-equivalent exit code
	Fails  int     `json:"failures"`         // result: failed cells the request asked for
	Output string  `json:"output,omitempty"` // result: the CLI's exact stdout bytes
	Error  string  `json:"error,omitempty"`  // error: what went wrong
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	var req experiments.Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		jsonError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	o, err := req.Opts()
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	release := s.acquire(w, r)
	if release == nil {
		return
	}
	defer release()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)

	// The per-request hook fires from the builders' goroutines concurrently;
	// one mutex serializes the stream. After a disconnect, a cell this
	// request abandoned can still deliver its final event from the detached
	// publisher goroutine once the handler has returned — /metrics still
	// counts it, and the closed flag keeps it off the dead ResponseWriter.
	var (
		mu     sync.Mutex
		closed bool
	)
	defer func() {
		mu.Lock()
		closed = true
		mu.Unlock()
	}()
	writeLine := func(l streamLine) {
		data, err := json.Marshal(l)
		if err != nil {
			return
		}
		mu.Lock()
		if !closed {
			w.Write(append(data, '\n'))
			if fl != nil {
				fl.Flush()
			}
		}
		mu.Unlock()
	}
	ctx := runner.WithRequestHook(r.Context(), func(ev runner.Event) {
		s.met.observeCell(ev)
		writeLine(streamLine{
			Type: "cell", Kind: ev.Kind.String(), Key: ev.Key, Label: ev.Label,
			Ms: float64(ev.Dur) / 1e6, Err: ev.Err,
		})
	})
	tables, failed, err := experiments.RunOnCtx(ctx, s.eng, req.Exp, o)
	if err != nil {
		writeLine(streamLine{Type: "error", Error: err.Error()})
		return
	}
	result := streamLine{Type: "result", Fails: len(failed), Output: experiments.Render(tables)}
	if result.Fails > 0 {
		result.Exit = 1
	}
	writeLine(result)
}

// queryBool reads the boolean query parameter name as the CLI reads a
// boolean flag (strconv.ParseBool); an absent or empty value is false.
func queryBool(r *http.Request, name string) (bool, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return false, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("bad %s value %q (want true or false, as a CLI flag takes it)", name, v)
	}
	return b, nil
}

// cellResponse is the GET /v1/cells document.
type cellResponse struct {
	App     string          `json:"app"`
	Model   string          `json:"model"`
	Procs   int             `json:"procs"`
	Quick   bool            `json:"quick"`
	Key     string          `json:"key,omitempty"`
	Label   string          `json:"label,omitempty"`
	Source  string          `json:"source"` // compute, memo, disk, or dedup
	Metrics json.RawMessage `json:"metrics,omitempty"`
	Err     string          `json:"err,omitempty"`
}

// cellSource maps the request's terminal event kind to the response's
// source field.
func cellSource(k runner.EventKind) string {
	switch k {
	case runner.EventMemoHit:
		return "memo"
	case runner.EventDiskHit:
		return "disk"
	case runner.EventDedup:
		return "dedup"
	default:
		return "compute"
	}
}

func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	appName, modelName := r.PathValue("app"), r.PathValue("model")
	procs, err := experiments.ParseProcCount(r.PathValue("procs"))
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Validate against the app table before admission: a request that can
	// only be answered 4xx must not take a run slot or a queue position.
	app, err := experiments.LookupApp(appName)
	if err != nil {
		jsonError(w, http.StatusNotFound, "%v", err)
		return
	}
	model, err := app.Model(modelName)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	quick, err := queryBool(r, "quick")
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	o, _ := experiments.Request{Quick: quick}.Opts() // cannot fail: no name, no procs

	release := s.acquire(w, r)
	if release == nil {
		return
	}
	defer release()

	// The terminal event of this request's single cell tells us where the
	// outcome came from; the request hook is the attribution seam.
	var (
		mu   sync.Mutex
		last runner.Event
		seen bool
	)
	ctx := runner.WithRequestHook(r.Context(), func(ev runner.Event) {
		s.met.observeCell(ev)
		mu.Lock()
		last, seen = ev, true
		mu.Unlock()
	})
	res := app.Cell(ctx, s.eng, model, procs, o)

	resp := cellResponse{App: appName, Model: modelName, Procs: procs, Quick: quick}
	mu.Lock()
	if seen {
		resp.Key, resp.Label, resp.Source = last.Key, last.Label, cellSource(last.Kind)
	}
	mu.Unlock()
	code := http.StatusOK
	if res.Err != nil {
		resp.Err, code = res.Err.Error(), http.StatusInternalServerError
	} else if data, err := core.EncodeMetrics(res.M); err == nil {
		// The strict lossless JSON codec from core (core.DecodeMetrics reads
		// it back), so a client round-trips exactly what the engine computed.
		resp.Metrics = data
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	rep := s.eng.Report()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, rep.Table().String())
		return
	}
	writeIndented(w, rep)
}

// cacheResponse is the GET /v1/cache document.
type cacheResponse struct {
	Enabled  bool                   `json:"enabled"`
	Dir      string                 `json:"dir,omitempty"`
	Fence    string                 `json:"fence,omitempty"`
	Counters *diskcache.Counters    `json:"counters,omitempty"`
	Verify   *diskcache.VerifyStats `json:"verify,omitempty"`
}

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	verify, err := queryBool(r, "verify")
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	dc := s.eng.Cache()
	resp := cacheResponse{Enabled: dc != nil}
	if dc != nil {
		resp.Dir, resp.Fence = dc.Dir(), dc.Fence()
		c := dc.Counters()
		resp.Counters = &c
		if verify {
			st, err := dc.Verify()
			if err != nil {
				jsonError(w, http.StatusInternalServerError, "cache verify: %v", err)
				return
			}
			resp.Verify = &st
		}
	}
	writeIndented(w, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.write(w, int(s.pending.Load()), len(s.slots), s.draining.Load())
}
