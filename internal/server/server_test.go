package server

// The experiment server's contract, tested over real HTTP (httptest):
// byte-identity of streamed output with the CLI, single-flight across
// concurrent clients, per-request cancellation on client disconnect,
// bounded admission with 429, drain semantics, and exactly-once cold
// compute across two daemons sharing one cache directory via leases.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"o2k/internal/core"
	"o2k/internal/experiments"
	"o2k/internal/machine"
	"o2k/internal/runner"
	"o2k/internal/runner/diskcache"
	"o2k/internal/runner/lease"
)

// smallExp is the request the in-flight tests keep in flight: a real quick
// experiment of five cells (the cg mesh, its P = 2 plan and three run cells).
const smallExp = `{"exp":"cg","quick":true,"procs":"2"}`

// holdSlot takes the one worker slot of eng, a runner.New(1) engine, with a
// cell whose compute waits until release is called (at the latest when the
// test ends). Until then every cell a request asks for stays in flight,
// waiting for the slot. Call it after any SetHook: a hook goes on before the
// engine's first request.
func holdSlot(t *testing.T, eng *runner.Engine) (release func()) {
	t.Helper()
	gate, held, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		eng.DoCell(context.Background(), runner.Cell{Key: "slot-holder", Label: "slot holder",
			Prepare: runner.Ready(func(context.Context) (any, error) {
				close(held)
				<-gate
				return nil, nil
			})})
	}()
	select {
	case <-held:
	case <-done:
		t.Fatal("the slot holder returned without holding the slot")
	}
	var once sync.Once
	release = func() { once.Do(func() { close(gate); <-done }) }
	t.Cleanup(release)
	return release
}

// computes tallies an engine's compute events per cell key, those that
// succeeded and those that failed; its hook goes on the engine (SetHook).
type computes struct {
	mu         sync.Mutex
	ok, failed map[string]int
}

func newComputes() *computes {
	return &computes{ok: map[string]int{}, failed: map[string]int{}}
}

func (c *computes) hook(ev runner.Event) {
	if ev.Kind != runner.EventCompute {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ev.Err == "" {
		c.ok[ev.Key]++
	} else {
		c.failed[ev.Key]++
	}
}

// counts returns copies of the two tallies.
func (c *computes) counts() (ok, failed map[string]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.ok), maps.Clone(c.failed)
}

// newTestServer stands up a Server over a fresh engine behind httptest.
func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Server, *runner.Engine) {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = runner.New(0)
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, s, cfg.Engine
}

// result is the final NDJSON line of an experiment stream.
type result struct {
	Type     string `json:"type"`
	Exit     int    `json:"exit"`
	Failures int    `json:"failures"`
	Output   string `json:"output"`
	Error    string `json:"error"`
}

// postExperiment submits body to the experiments endpoint and returns the
// response code, the cell lines, and the terminal result line.
func postExperiment(t *testing.T, url, body string) (int, []map[string]any, result) {
	t.Helper()
	resp, err := http.Post(url+"/v1/experiments", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/experiments: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, nil, result{Error: string(data)}
	}
	var (
		cells []map[string]any
		res   result
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<22)
	for sc.Scan() {
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch probe.Type {
		case "cell":
			var m map[string]any
			json.Unmarshal(sc.Bytes(), &m)
			cells = append(cells, m)
		case "result", "error":
			if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
				t.Fatalf("bad terminal line %q: %v", sc.Text(), err)
			}
			res.Type = probe.Type
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return resp.StatusCode, cells, res
}

// waitCond polls cond for up to five seconds.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestExperimentsStreamMatchesCLIBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick suite twice")
	}
	ts, _, _ := newTestServer(t, Config{})
	code, cells, res := postExperiment(t, ts.URL, `{"exp":"all","quick":true}`)
	if code != http.StatusOK || res.Type != "result" {
		t.Fatalf("quick suite: code=%d terminal=%+v", code, res)
	}
	if res.Exit != 0 || res.Failures != 0 {
		t.Fatalf("quick suite failed: exit=%d failures=%d", res.Exit, res.Failures)
	}
	if len(cells) == 0 {
		t.Fatal("no cell events were streamed")
	}
	want := experiments.Render(experiments.RunAllCtx(context.Background(), runner.New(0), experiments.QuickOpts()))
	if res.Output != want {
		t.Fatalf("server output is not byte-identical to the CLI rendering:\nserver %d bytes, cli %d bytes", len(res.Output), len(want))
	}
}

// The verdict table counts its failures on a ledger of its own, and the
// request still streams every cell line through the server's hook. The
// result's failures count failed cells by key: two poisoned cells that
// share a label (the Origin and T3E mesh MP runs at one P) count twice.
func TestVerdictsStreamAndCountFailuresByKey(t *testing.T) {
	ts, _, eng := newTestServer(t, Config{})
	o := experiments.QuickOpts()
	midP := o.Procs[len(o.Procs)/2]
	poisoned := map[string]bool{}
	for _, cfg := range []machine.Config{machine.Default(midP), machine.T3E(midP)} {
		key := core.CellKey("mesh/run", core.MP, cfg, o.MeshW)
		eng.Do(key, "poisoned", func(context.Context) (any, error) { return nil, errors.New("injected fault") })
		poisoned[key] = true
	}
	code, cells, res := postExperiment(t, ts.URL, `{"exp":"verdicts","quick":true}`)
	if code != http.StatusOK || res.Type != "result" {
		t.Fatalf("verdicts: code=%d terminal=%+v", code, res)
	}
	if res.Failures != 2 || res.Exit != 1 {
		t.Fatalf("failures=%d exit=%d, want 2 and 1", res.Failures, res.Exit)
	}
	labels := map[string]bool{}
	for _, c := range cells {
		if key, _ := c["key"].(string); poisoned[key] {
			labels[c["label"].(string)] = true
		}
	}
	if want := fmt.Sprintf("mesh MP P=%d", midP); len(labels) != 1 || !labels[want] {
		t.Fatalf("the poisoned cells streamed under labels %v, want only %q", labels, want)
	}
	if !strings.Contains(res.Output, "2 failed cell(s)") {
		t.Fatalf("V0 does not count both failed cells:\n%s", res.Output)
	}
}

func TestConcurrentIdenticalSubmissionsComputeOnce(t *testing.T) {
	cc := newComputes()
	ts, _, eng := newTestServer(t, Config{Engine: runner.New(1), MaxInflight: 16})
	eng.SetHook(cc.hook)
	release := holdSlot(t, eng)

	const n = 8
	type resp struct {
		code int
		res  result
	}
	results := make(chan resp, n)
	for i := 0; i < n; i++ {
		go func() {
			code, _, res := postExperiment(t, ts.URL, smallExp)
			results <- resp{code, res}
		}()
	}
	// All other submissions must be waiting on the one in-flight compute.
	waitCond(t, "7 deduplicated requests", func() bool {
		for _, c := range eng.Report().Cells {
			if c.Dedups >= n-1 {
				return true
			}
		}
		return false
	})
	release()
	var first string
	for i := 0; i < n; i++ {
		r := <-results
		if r.code != http.StatusOK || r.res.Exit != 0 || !strings.Contains(r.res.Output, "Figure 14") {
			t.Fatalf("client %d: code=%d res=%+v", i, r.code, r.res)
		}
		if first == "" {
			first = r.res.Output
		} else if r.res.Output != first {
			t.Fatalf("clients received different bytes")
		}
	}
	ok, failed := cc.counts()
	if len(failed) != 0 || len(ok) != eng.Report().Unique {
		t.Fatalf("computes: %v succeeded and %v failed for %d unique cells", ok, failed, eng.Report().Unique)
	}
	for key, k := range ok {
		if k != 1 {
			t.Fatalf("%d identical submissions ran cell %s %d times, want exactly 1", n, key, k)
		}
	}
}

func TestClientDisconnectAbortsOnlyItsCells(t *testing.T) {
	cc := newComputes()
	ts, _, eng := newTestServer(t, Config{Engine: runner.New(1)})
	eng.SetHook(cc.hook)
	release := holdSlot(t, eng)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/experiments",
			strings.NewReader(smallExp))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- err
	}()
	waitCond(t, "the request's cells in flight", func() bool { return eng.Report().Unique > 1 })

	// Mid-stream disconnect: the request's cells lose their last reference,
	// are aborted, and retired from the engine; the slot holder is left.
	cancel()
	<-done
	waitCond(t, "aborted cell retirement", func() bool { return eng.Report().Unique == 1 })
	ok, aborted := cc.counts()
	if len(ok) != 0 || len(aborted) == 0 {
		t.Fatalf("computes before the slot is free: %v succeeded, %v aborted; want only aborts, at least one", ok, aborted)
	}

	// The keys recompute for the next client as if they had never been asked.
	release()
	code, _, res := postExperiment(t, ts.URL, smallExp)
	if code != http.StatusOK || res.Exit != 0 || !strings.Contains(res.Output, "Figure 14") {
		t.Fatalf("post-disconnect request: code=%d res=%+v", code, res)
	}
	ok, _ = cc.counts()
	for key := range aborted {
		if ok[key] != 1 {
			t.Fatalf("aborted cell %s recomputed %d times, want 1 (aborted attempt + recompute)", key, ok[key])
		}
	}
	if rep := eng.Report(); rep.Unique != len(ok) || rep.Failures != 0 {
		t.Fatalf("engine report after recompute: unique=%d failures=%d, %d cells computed", rep.Unique, rep.Failures, len(ok))
	}
}

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return string(data)
}

func TestAdmissionQueueOverflowAnswers429(t *testing.T) {
	ts, _, eng := newTestServer(t, Config{Engine: runner.New(1), MaxInflight: 1, MaxQueue: 1})
	release := holdSlot(t, eng)

	results := make(chan int, 2)
	post := func() {
		code, _, _ := postExperiment(t, ts.URL, smallExp)
		results <- code
	}
	go post() // request A: takes the run slot; its cells wait for the held engine slot
	waitCond(t, "request A's cells in flight", func() bool { return eng.Report().Unique > 1 })
	go post() // request B: waits in the queue
	waitCond(t, "one queued request", func() bool {
		return strings.Contains(scrapeMetrics(t, ts.URL), "o2k_requests_pending 2")
	})

	// Request C: beyond inflight+queue — refused, fast.
	resp, err := http.Post(ts.URL+"/v1/experiments", "application/json",
		strings.NewReader(smallExp))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request got %d (%s), want 429", resp.StatusCode, body)
	}

	release()
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("admitted request %d finished with %d", i, code)
		}
	}
	if !strings.Contains(scrapeMetrics(t, ts.URL), `o2k_admission_rejected_total{reason="queue_full"} 1`) {
		t.Fatal("queue_full rejection not counted in /metrics")
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	ts, s, _ := newTestServer(t, Config{})
	if resp, _ := http.Get(ts.URL + "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %d", resp.StatusCode)
	}
	s.Drain()
	if resp, _ := http.Get(ts.URL + "/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain: %d, want 503", resp.StatusCode)
	}
	code, _, res := postExperiment(t, ts.URL, smallExp)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("POST after drain: code=%d res=%+v, want 503", code, res)
	}
	if !strings.Contains(scrapeMetrics(t, ts.URL), "o2k_draining 1") {
		t.Fatal("drain state not reflected in /metrics")
	}
}

func TestCellEndpointSourcesAndValidation(t *testing.T) {
	ts, _, _ := newTestServer(t, Config{})
	get := func(path string) (int, cellResponse) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var cr cellResponse
		json.NewDecoder(resp.Body).Decode(&cr)
		return resp.StatusCode, cr
	}

	code, cr := get("/v1/cells/stencil/mp/2?quick=1")
	if code != http.StatusOK || cr.Source != "compute" || len(cr.Metrics) == 0 {
		t.Fatalf("cold cell: code=%d resp=%+v", code, cr)
	}
	if m, err := core.DecodeMetrics(cr.Metrics); err != nil || m.Procs != 2 {
		t.Fatalf("metrics payload does not round-trip the strict codec: %v %+v", err, m)
	}
	if code, cr = get("/v1/cells/stencil/mp/2?quick=1"); code != http.StatusOK || cr.Source != "memo" {
		t.Fatalf("warm cell: code=%d source=%q, want memo", code, cr.Source)
	}
	if code, cr = get("/v1/cells/hybrid/mp+sas/2?quick=1"); code != http.StatusOK || cr.Source != "compute" {
		t.Fatalf("hybrid cell: code=%d resp=%+v", code, cr)
	}
	// The URL reads as the CLI's flags do: app names in any case, like
	// -trace-exp Mesh/MP, and quick as strconv.ParseBool reads -quick=TRUE.
	if code, cr = get("/v1/cells/Mesh/MP/2?quick=1"); code != http.StatusOK || !cr.Quick {
		t.Fatalf("upper-case app: code=%d resp=%+v", code, cr)
	}
	if code, cr = get("/v1/cells/stencil/mp/2?quick=TRUE"); code != http.StatusOK || !cr.Quick || cr.Source != "memo" {
		t.Fatalf("quick=TRUE: code=%d resp=%+v, want the quick cell from memo", code, cr)
	}

	invalid := map[string]int{
		"/v1/cells/warp/mp/2":              http.StatusNotFound,
		"/v1/cells/nope/mp/4":              http.StatusNotFound,
		"/v1/cells/stencil/openmp/2":       http.StatusBadRequest,
		"/v1/cells/stencil/mp/zero":        http.StatusBadRequest,
		"/v1/cells/stencil/mp/1025":        http.StatusBadRequest,
		"/v1/cells/mesh/mp+sas/2":          http.StatusBadRequest,
		"/v1/cells/hybrid/mp/4":            http.StatusBadRequest,
		"/v1/cells/stencil/mp/2?quick=yes": http.StatusBadRequest,
	}
	for path, want := range invalid {
		if code, _ := get(path); code != want {
			t.Errorf("GET %s = %d, want %d", path, code, want)
		}
	}

	// An unknown experiment is refused with the sentence the CLI prints: the
	// accepted names, from the one function both front ends call.
	_, wantErr := experiments.Request{Exp: "nope"}.Opts()
	code, _, res := postExperiment(t, ts.URL, `{"exp":"nope"}`)
	var doc struct{ Error string }
	json.Unmarshal([]byte(res.Error), &doc)
	if code != http.StatusBadRequest || doc.Error != wantErr.Error() || !strings.Contains(doc.Error, "mesh-speedup") {
		t.Errorf("POST unknown experiment: code=%d error=%q, want 400 with %q", code, doc.Error, wantErr)
	}
	if code, _, _ := postExperiment(t, ts.URL, `{"exp":"verdicts","quick":true,"procs":"16,4,1"}`); code != http.StatusBadRequest {
		t.Errorf("POST with processor counts out of order: code=%d, want 400", code)
	}

	// Validation comes before admission: with the only run slot taken and the
	// queue full, an invalid cell is still answered 4xx at once — never 429,
	// never parked — and takes no queue position.
	ts, _, eng := newTestServer(t, Config{Engine: runner.New(1), MaxInflight: 1, MaxQueue: 1})
	release := holdSlot(t, eng)
	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			code, _, _ := postExperiment(t, ts.URL, smallExp)
			done <- code
		}()
	}
	waitCond(t, "a saturated admission queue", func() bool {
		return strings.Contains(scrapeMetrics(t, ts.URL), "o2k_requests_pending 2")
	})
	for path, want := range invalid {
		if code, _ := get(path); code != want {
			t.Errorf("saturated: GET %s = %d, want %d", path, code, want)
		}
	}
	if code, _ := get("/v1/cells/stencil/mp/2?quick=1"); code != http.StatusTooManyRequests {
		t.Errorf("saturated: a valid cell got %d, want 429", code)
	}
	if m := scrapeMetrics(t, ts.URL); !strings.Contains(m, "o2k_requests_pending 2") {
		t.Errorf("invalid cells took queue positions:\n%s", m)
	}
	release()
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Errorf("admitted request finished with %d", code)
		}
	}
}

func TestReportCacheAndMetricsEndpoints(t *testing.T) {
	dir := t.TempDir()
	dc, err := diskcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts, _, _ := newTestServer(t, Config{Engine: runner.Open(context.Background(), runner.Config{Cache: dc})})

	// Populate one cell so every surface has something to show.
	if resp, _ := http.Get(ts.URL + "/v1/cells/stencil/sas/2?quick=1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up cell request: %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/v1/report")
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if rep["unique_cells"].(float64) < 1 {
		t.Fatalf("report shows no cells: %v", rep)
	}
	resp, _ = http.Get(ts.URL + "/v1/report?format=text")
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), "Run report") {
		t.Fatalf("text report missing header:\n%s", text)
	}

	resp, _ = http.Get(ts.URL + "/v1/cache?verify=1")
	var cache cacheResponse
	json.NewDecoder(resp.Body).Decode(&cache)
	resp.Body.Close()
	if !cache.Enabled || cache.Dir != dir || cache.Counters == nil || cache.Verify == nil {
		t.Fatalf("cache document incomplete: %+v", cache)
	}
	if cache.Verify.Bad != 0 {
		t.Fatalf("fresh cache verified bad: %+v", cache.Verify)
	}
	if resp, _ = http.Get(ts.URL + "/v1/cache?verify=yes"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("verify=yes: %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// A memory-only server reports the cache as disabled.
	ts2, _, _ := newTestServer(t, Config{})
	resp, _ = http.Get(ts2.URL + "/v1/cache")
	var nocache cacheResponse
	json.NewDecoder(resp.Body).Decode(&nocache)
	resp.Body.Close()
	if nocache.Enabled {
		t.Fatalf("memory-only server claims a cache: %+v", nocache)
	}

	m := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"o2k_build_info{",
		`o2k_cell_events_total{kind="compute"}`,
		`o2k_http_requests_total{code="200"}`,
		"o2k_requests_pending 0",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("/metrics lacks %q:\n%s", want, m)
		}
	}
}

// /metrics has one line per engine event kind in each per-kind family, and
// none for a kind the engine does not have: the counters are sized from the
// last kind of runner's table.
func TestMetricsCoverEveryEventKind(t *testing.T) {
	unnamed := runner.EventKind(255).String()
	if last, past := runner.EventKind(numEventKinds-1).String(), runner.EventKind(numEventKinds).String(); last == unnamed || past != unnamed {
		t.Fatalf("numEventKinds = %d is not the engine's kind count: kind %d is %q, kind %d is %q", numEventKinds, numEventKinds-1, last, numEventKinds, past)
	}
	ts, _, _ := newTestServer(t, Config{})
	m := scrapeMetrics(t, ts.URL)
	for k := 0; k < numEventKinds; k++ {
		if want := fmt.Sprintf("o2k_cell_events_total{kind=%q}", runner.EventKind(k)); !strings.Contains(m, want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
	if n := strings.Count(m, "o2k_cell_events_total{"); n != numEventKinds {
		t.Errorf("/metrics has %d o2k_cell_events_total lines for %d event kinds:\n%s", n, numEventKinds, m)
	}
}

// tally is an engine-wide oracle for /metrics: it counts an engine's events
// by kind, and its failed computes, through SetHook. The slot holder's cell
// is no request's, so /metrics never sees it and the tally skips it.
type tally struct {
	mu     sync.Mutex
	kinds  [numEventKinds]int
	failed int
}

func (tl *tally) hook(ev runner.Event) {
	if ev.Key == "slot-holder" {
		return
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.kinds[ev.Kind]++
	if ev.Kind == runner.EventCompute && ev.Err != "" {
		tl.failed++
	}
}

// mismatch returns the first /metrics line of the tally that url's /metrics
// lacks, "" when it has them all.
func (tl *tally) mismatch(t *testing.T, url string) string {
	tl.mu.Lock()
	lines := []string{fmt.Sprintf("o2k_cell_compute_failures_total %d", tl.failed)}
	for k, n := range tl.kinds {
		lines = append(lines, fmt.Sprintf("o2k_cell_events_total{kind=%q} %d", runner.EventKind(k), n))
	}
	tl.mu.Unlock()
	m := scrapeMetrics(t, url)
	for _, l := range lines {
		if !strings.Contains(m, l+"\n") {
			return l
		}
	}
	return ""
}

// /metrics counts from each request's own hook, so every event a request
// causes is counted exactly once: a compute with its nested plan cells, a
// dedup, a memo hit, a disk hit, and the aborted computes of a client that
// left, which fire after its handler has returned.
func TestMetricsCountEachEventOnce(t *testing.T) {
	dir := t.TempDir()
	open := func(dir string) (*httptest.Server, *runner.Engine, *tally) {
		dc, err := diskcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		eng := runner.Open(context.Background(), runner.Config{Jobs: 1, Cache: dc})
		tl := new(tally)
		eng.SetHook(tl.hook)
		ts, _, _ := newTestServer(t, Config{Engine: eng, MaxInflight: 8})
		return ts, eng, tl
	}
	get := func(url string) error {
		resp, err := http.Get(url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
		}
		return nil
	}
	check := func(url string, tl *tally, after string) {
		t.Helper()
		if l := tl.mismatch(t, url); l != "" {
			t.Fatalf("after %s, /metrics lacks the tally's %q:\n%s", after, l, scrapeMetrics(t, url))
		}
	}

	a, engA, tlA := open(dir)
	if err := get(a.URL + "/v1/cells/stencil/mp/2?quick=1"); err != nil {
		t.Fatal(err)
	}
	check(a.URL, tlA, "a cold GET")

	release := holdSlot(t, engA)
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { errs <- get(a.URL + "/v1/cells/stencil/sas/2?quick=1") }()
	}
	waitCond(t, "a deduplicated GET", func() bool {
		for _, c := range engA.Report().Cells {
			if c.Dedups > 0 {
				return true
			}
		}
		return false
	})
	release()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	check(a.URL, tlA, "two concurrent identical cold GETs")

	if err := get(a.URL + "/v1/cells/stencil/sas/2?quick=1"); err != nil {
		t.Fatal(err)
	}
	check(a.URL, tlA, "a warm GET")
	for _, k := range []runner.EventKind{runner.EventCompute, runner.EventDedup, runner.EventMemoHit} {
		if tlA.kinds[k] == 0 {
			t.Errorf("the first daemon saw no %s event", k)
		}
	}

	b, _, tlB := open(dir)
	if err := get(b.URL + "/v1/cells/stencil/mp/2?quick=1"); err != nil {
		t.Fatal(err)
	}
	check(b.URL, tlB, "a disk hit")
	if tlB.kinds[runner.EventDiskHit] != 1 {
		t.Fatalf("the second daemon saw %d disk hits, want 1", tlB.kinds[runner.EventDiskHit])
	}

	// A client that leaves before its cells publish. The one slot stays
	// held until every cell of the POST is aborted (retired from the
	// report), so none can compute for the client; then it is freed while
	// aborted publishers may still be on their way to it. Each fires its
	// failed compute after the handler has returned, and none takes the
	// slot: nothing reaches the daemon's cache.
	cdir := t.TempDir()
	c, engC, tlC := open(cdir)
	releaseC := holdSlot(t, engC)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, _ := http.NewRequestWithContext(ctx, "POST", c.URL+"/v1/experiments", strings.NewReader(smallExp))
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitCond(t, "the POST's cells in flight", func() bool { return engC.Report().Unique > 1 })
	cancel()
	<-done
	waitCond(t, "every cell of the POST aborted", func() bool { return engC.Report().Unique == 1 })
	releaseC()
	waitCond(t, "every aborted compute counted once", func() bool {
		tlC.mu.Lock()
		failed := tlC.failed
		tlC.mu.Unlock()
		return failed > 0 && tlC.mismatch(t, c.URL) == ""
	})
	if cells, _ := filepath.Glob(filepath.Join(cdir, "*", "*.cell")); len(cells) > 0 {
		t.Fatalf("aborted cells left %d cache entries: %v", len(cells), cells)
	}
}

func TestTwoServersSharingCacheComputeEachCellOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick experiment on two engines")
	}
	dir := t.TempDir()
	var (
		countMu  sync.Mutex
		computes = map[string]int{}
	)
	countHook := func(ev runner.Event) {
		if ev.Kind == runner.EventCompute {
			countMu.Lock()
			computes[ev.Key]++
			countMu.Unlock()
		}
	}
	mk := func() *httptest.Server {
		dc, err := diskcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		eng := runner.Open(context.Background(), runner.Config{Jobs: 4, Cache: dc, Leases: lease.New(lease.Config{Dir: dir})})
		eng.SetHook(countHook)
		ts, _, _ := newTestServer(t, Config{Engine: eng})
		return ts
	}
	a, b := mk(), mk()

	type out struct {
		code int
		res  result
	}
	results := make(chan out, 2)
	for _, ts := range []*httptest.Server{a, b} {
		go func(url string) {
			code, _, res := postExperiment(t, url, `{"exp":"regular-control","quick":true}`)
			results <- out{code, res}
		}(ts.URL)
	}
	var outputs []string
	for i := 0; i < 2; i++ {
		r := <-results
		if r.code != http.StatusOK || r.res.Exit != 0 {
			t.Fatalf("daemon %d: code=%d res=%+v", i, r.code, r.res)
		}
		outputs = append(outputs, r.res.Output)
	}
	if outputs[0] != outputs[1] {
		t.Fatal("the two daemons rendered different bytes")
	}
	// Exactly-once is a disk-cache property: only persisted cells can be
	// adopted across processes. Memory-only cells (e.g. the n-body per-P
	// plans, which deliberately carry no codec) compute once per daemon.
	probe, err := diskcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	countMu.Lock()
	defer countMu.Unlock()
	if len(computes) == 0 {
		t.Fatal("no computes recorded — the hook is not wired")
	}
	persisted := 0
	for key, n := range computes {
		if _, ok := probe.Get(key); !ok {
			continue
		}
		persisted++
		if n != 1 {
			t.Errorf("cell %s computed %d times across the fleet, want exactly 1", key, n)
		}
	}
	if persisted == 0 {
		t.Fatal("no persisted cells were computed — the cache is not wired")
	}
}
