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
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"o2k/internal/core"
	"o2k/internal/experiments"
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
// waiting for the slot. Call it after New, which hooks the engine.
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
// succeeded and those that failed; its hook goes in Config.Hook.
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

func TestConcurrentIdenticalSubmissionsComputeOnce(t *testing.T) {
	cc := newComputes()
	ts, _, eng := newTestServer(t, Config{Engine: runner.New(1), MaxInflight: 16, Hook: cc.hook})
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
	ts, _, eng := newTestServer(t, Config{Engine: runner.New(1), Hook: cc.hook})
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

	invalid := map[string]int{
		"/v1/cells/warp/mp/2":        http.StatusNotFound,
		"/v1/cells/nope/mp/4":        http.StatusNotFound,
		"/v1/cells/stencil/openmp/2": http.StatusBadRequest,
		"/v1/cells/stencil/mp/zero":  http.StatusBadRequest,
		"/v1/cells/stencil/mp/1025":  http.StatusBadRequest,
		"/v1/cells/mesh/mp+sas/2":    http.StatusBadRequest,
		"/v1/cells/hybrid/mp/4":      http.StatusBadRequest,
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
	eng := runner.New(0)
	eng.SetCache(dc)
	ts, _, _ := newTestServer(t, Config{Engine: eng})

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
	mk := func(shard int) *httptest.Server {
		dc, err := diskcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		eng := runner.New(4)
		eng.SetCache(dc)
		eng.SetLeases(lease.New(lease.Config{Dir: dir, Shard: shard, Shards: 2}))
		ts, _, _ := newTestServer(t, Config{Engine: eng, Hook: countHook})
		return ts
	}
	a, b := mk(0), mk(1)

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
