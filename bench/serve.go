package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"o2k/internal/core"
	"o2k/internal/experiments"
)

// The daemon's cell vocabulary, as its URL space spells it.
var (
	serveApps   = []string{"mesh", "nbody", "cg", "stencil"}
	serveModels = []string{"mp", "shmem", "sas"}
	paperProcs  = experiments.DefaultOpts().Procs // 1..64, the paper's sweep
)

const postBody = `{"exp":"all","quick":true}`

type opKind uint8

const (
	opWarmGet opKind = iota
	opPost
	opColdGet
)

// op is one generated request. Only these reach the daemon.
type op struct {
	kind opKind
	path string // GET path with query; empty for the POST
	full bool   // cold GET of a full-scale (not quick) cell
}

func cellPath(app, model string, procs int, quick bool) string {
	p := fmt.Sprintf("/v1/cells/%s/%s/%d", app, model, procs)
	if quick {
		p += "?quick=1"
	}
	return p
}

// hotSet is what set-up prewarms and warm GETs draw from: the paper's
// processor counts x apps x models at quick scale. Quick rather than full
// scale because a memo hit costs the same whatever the cell cost to compute,
// and set-up has to be cheap enough to repeat for a median.
func hotSet() []string {
	var hot []string
	for _, app := range serveApps {
		for _, model := range serveModels {
			for _, p := range paperProcs {
				hot = append(hot, cellPath(app, model, p, true))
			}
		}
	}
	return hot
}

// genOps builds the request list from one math/rand source. Cold cells are a
// stratified draw without replacement: every (app, model, scale) stratum
// contributes exactly one processor count from each of `bands` contiguous
// bands of [2, 96] minus the paper's counts, so every seed prices the same
// mix of cell sizes and only the counts inside a band (and the order of the
// whole list) change. The list is then shuffled; its SHA-256 proves two runs
// issued the same ops.
func genOps(seed int64, z sizing) (ops []op, sha string) {
	rng := rand.New(rand.NewSource(seed))
	paper := map[int]bool{}
	for _, p := range paperProcs {
		paper[p] = true
	}
	var cand []int
	for p := 2; p <= 96; p++ {
		if !paper[p] {
			cand = append(cand, p)
		}
	}
	scales := []bool{true, false} // quick, full
	if z.smoke {
		scales = []bool{true}
	}
	for _, app := range serveApps {
		for _, model := range serveModels {
			for _, quick := range scales {
				for b := 0; b < z.coldBands; b++ {
					lo, hi := b*len(cand)/z.coldBands, (b+1)*len(cand)/z.coldBands
					p := cand[lo+rng.Intn(hi-lo)]
					ops = append(ops, op{kind: opColdGet, path: cellPath(app, model, p, quick), full: !quick})
				}
			}
		}
	}
	cold := len(ops)
	hot := hotSet()
	for i := 0; i < cold*z.warmGetsPer; i++ {
		ops = append(ops, op{kind: opWarmGet, path: hot[rng.Intn(len(hot))]})
	}
	for i := 0; i < cold*z.postsPer3/3; i++ {
		ops = append(ops, op{kind: opPost})
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	h := sha256.New()
	for _, o := range ops {
		if o.kind == opPost {
			fmt.Fprintf(h, "POST /v1/experiments %s\n", postBody)
		} else {
			fmt.Fprintf(h, "GET %s\n", o.path)
		}
	}
	return ops, hex.EncodeToString(h.Sum(nil))
}

// daemon is a live `o2kbench serve` child.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	stderr  *lockedBuf
	drained chan struct{} // closed when the stderr reader has hit EOF
	readyS  float64       // start -> /healthz OK
}

type lockedBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// startDaemon launches the daemon on a kernel-assigned port, learns the port
// from its stderr banner, and waits for /healthz.
func startDaemon(ctx context.Context, e *env, cacheDir string) (*daemon, error) {
	cmd := exec.Command(e.bin, "serve", "-addr", "127.0.0.1:0", "-cache", cacheDir, "-leases")
	cmd.Dir = e.tmp
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, stderr: new(lockedBuf), drained: make(chan struct{})}
	addr := make(chan string, 1) // one send: the banner line
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(pipe)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(d.stderr, line)
			if i := strings.Index(line, "serving on "); i >= 0 && !sent {
				addr <- strings.TrimSpace(line[i+len("serving on "):])
				sent = true
			}
		}
		if !sent {
			addr <- ""
		}
	}()
	select {
	case d.base = <-addr:
	case <-time.After(20 * time.Second):
	case <-ctx.Done():
	}
	if d.base == "" {
		d.stop()
		return nil, fmt.Errorf("daemon did not announce its address: %s", lastLines([]byte(d.stderr.String()), 3))
	}
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 20*time.Second || ctx.Err() != nil {
			d.stop()
			return nil, errors.New("daemon never became healthy")
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.readyS = time.Since(start).Seconds()
	return d, nil
}

// stop drains the daemon with SIGTERM (SIGKILL if it overstays), waits for
// it, and returns its resource usage. Safe to call once.
func (d *daemon) stop() (cpu, sys, rssMB float64, exit int) {
	d.cmd.Process.Signal(syscall.SIGTERM)
	timer := time.AfterFunc(30*time.Second, func() { d.cmd.Process.Kill() })
	<-d.drained // Wait closes the pipe; read it to EOF first
	d.cmd.Wait()
	timer.Stop()
	ps := d.cmd.ProcessState
	if ps == nil {
		return 0, 0, 0, -1
	}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024
	}
	return (ps.UserTime() + ps.SystemTime()).Seconds(), ps.SystemTime().Seconds(), rssMB, ps.ExitCode()
}

// serveCheck holds what responses are checked against: every cell's first
// metrics bytes, and the CLI's quick-suite stdout for the POSTs.
type serveCheck struct {
	quickRef []byte
	mu       sync.Mutex
	first    map[string][]byte // GET path -> metrics bytes of the first response
	byKey    map[string][]byte // cell key -> metrics bytes, for sim_digest
}

type cellDoc struct {
	Key     string          `json:"key"`
	Metrics json.RawMessage `json:"metrics"`
}

// get issues one cell GET and checks it: 200, metrics decode with the
// engine's own strict codec, and equal the first response for that cell.
func (sc *serveCheck) get(cl *http.Client, base, path string) (latency float64, problem string) {
	start := time.Now()
	resp, err := cl.Get(base + path)
	if err != nil {
		return 0, fmt.Sprintf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	latency = time.Since(start).Seconds()
	if err != nil {
		return latency, fmt.Sprintf("GET %s: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return latency, fmt.Sprintf("GET %s: status %d: %s", path, resp.StatusCode, lastLines(body, 1))
	}
	var doc cellDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return latency, fmt.Sprintf("GET %s: %v", path, err)
	}
	if _, err := core.DecodeMetrics(doc.Metrics); err != nil {
		return latency, fmt.Sprintf("GET %s: metrics do not decode: %v", path, err)
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if prev, ok := sc.first[path]; !ok {
		sc.first[path] = doc.Metrics
		sc.byKey[doc.Key] = doc.Metrics
	} else if !bytes.Equal(prev, doc.Metrics) {
		return latency, fmt.Sprintf("GET %s: metrics differ from the first response for this cell", path)
	}
	return latency, ""
}

// post submits the quick suite and checks the streamed result line against
// the CLI's stdout bytes.
func (sc *serveCheck) post(cl *http.Client, base string) (latency float64, problem string) {
	start := time.Now()
	resp, err := cl.Post(base+"/v1/experiments", "application/json", strings.NewReader(postBody))
	if err != nil {
		return 0, fmt.Sprintf("POST: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	latency = time.Since(start).Seconds()
	if err != nil {
		return latency, fmt.Sprintf("POST: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return latency, fmt.Sprintf("POST: status %d: %s", resp.StatusCode, lastLines(body, 1))
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	var last struct {
		Type   string `json:"type"`
		Exit   int    `json:"exit"`
		Output string `json:"output"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		return latency, fmt.Sprintf("POST: last stream line: %v", err)
	}
	switch {
	case last.Type != "result" || last.Exit != 0:
		return latency, fmt.Sprintf("POST: stream ended with type=%q exit=%d", last.Type, last.Exit)
	case last.Output != string(sc.quickRef):
		return latency, "POST: output differs from the CLI's -quick -exp all stdout"
	}
	return latency, ""
}

func newClient() *http.Client {
	// One keep-alive connection per closed-loop client.
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
}

// prewarm fills the hot set: the quick suite, then every hot cell once.
func (sc *serveCheck) prewarm(r *result, base string) {
	cl := newClient()
	defer cl.CloseIdleConnections()
	_, p := sc.post(cl, base)
	r.op(p)
	for _, path := range hotSet() {
		_, p := sc.get(cl, base, path)
		r.op(p)
	}
}

// serveStats is what one daemon session (set-up, the request list, drain)
// yields. Times are reference seconds (env.ref) except rawWall.
type serveStats struct {
	wall, rawWall              float64   // the whole request list
	setup                      float64   // daemon start -> healthy -> hot set filled
	readyS                     float64   // daemon start -> healthy
	warm, post, cold, coldFull []float64 // latencies, seconds
	cpu, sys, rssMB            float64   // daemon rusage at exit
	opsSHA, simDigest          string
	report, metricsPage        []byte // /v1/report and /metrics, scraped before the drain
}

// serveSession runs the request list once against a fresh daemon over a
// fresh cache directory: set-up, then a closed loop of two connections
// consuming the generated list in order. Callers of this daemon wait for
// replies, hence closed loop.
func serveSession(ctx context.Context, e *env, z sizing, seed int64, r *result, quickRef []byte, scrape bool) (*serveStats, error) {
	ops, sha := genOps(seed, z)
	st := &serveStats{opsSHA: sha}
	dir, cleanup, err := e.tempDir("serve")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	start := time.Now()
	d, err := startDaemon(ctx, e, dir)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	sc := &serveCheck{quickRef: quickRef, first: map[string][]byte{}, byKey: map[string][]byte{}}
	sc.prewarm(r, d.base)
	warmed := time.Now()
	st.setup, st.readyS = e.ref(warmed.Sub(start).Seconds(), start, warmed), d.readyS

	conns := min(2, e.host.NProc)
	type done struct {
		latency float64
		problem string
	}
	results := make([]done, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start = time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				if ops[i].kind == opPost {
					results[i].latency, results[i].problem = sc.post(cl, d.base)
				} else {
					results[i].latency, results[i].problem = sc.get(cl, d.base, ops[i].path)
				}
			}
		}()
	}
	wg.Wait()
	end := time.Now()
	st.rawWall = end.Sub(start).Seconds()
	st.wall = e.ref(st.rawWall, start, end)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// One weight for the whole list: its requests interleave on two
	// connections, far below the speedometer's sampling period.
	speed := st.wall / st.rawWall
	for i, dn := range results {
		r.op(dn.problem)
		dn.latency *= speed
		switch o := ops[i]; o.kind {
		case opWarmGet:
			st.warm = append(st.warm, dn.latency)
		case opPost:
			st.post = append(st.post, dn.latency)
		case opColdGet:
			st.cold = append(st.cold, dn.latency)
			if o.full {
				st.coldFull = append(st.coldFull, dn.latency)
			}
		}
	}
	if scrape {
		st.report = httpBody(d.base + "/v1/report")
		st.metricsPage = httpBody(d.base + "/metrics")
	}
	var exit int
	st.cpu, st.sys, st.rssMB, exit = d.stop()
	st.cpu *= speed // nearly all of the daemon's CPU time is spent on the list
	stopped = true
	drain := ""
	if exit != 0 {
		drain = fmt.Sprintf("daemon exited %d after SIGTERM: %s", exit, lastLines([]byte(d.stderr.String()), 3))
	}
	r.op(drain)

	keys := make([]string, 0, len(sc.byKey))
	for k := range sc.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s %s\n", k, sc.byKey[k])
	}
	st.simDigest = hex.EncodeToString(h.Sum(nil))
	return st, nil
}

func httpBody(url string) []byte {
	resp, err := http.Get(url)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body) // a short scrape is reported as missing counters
	return b
}

// serveMixed is the serve_mixed workload: the same seeded request list
// against z.serveRounds fresh daemons, so wall, CPU and set-up are medians
// over whole sessions and the sessions can be checked against each other.
func serveMixed(ctx context.Context, e *env, z sizing, seed int64) *result {
	r := newResult("serve_mixed")
	// The warm-up pass doubles as the POST reference. The daemon's own
	// set-up is what setup_s prices here, once per session.
	one := z
	one.setups = 1
	_, quickRef := warmUp(ctx, e, one, r)

	var wall, raw, cpu, rss, setup, perS, warm, slow, post, cold []float64
	var first *serveStats
	began := time.Now()
	for i := 0; i < z.serveRounds && ctx.Err() == nil; i++ {
		st, err := serveSession(ctx, e, z, seed, r, quickRef, false)
		if err != nil {
			r.op("serve_mixed: " + err.Error())
			return r
		}
		if first == nil {
			first = st
		} else if st.simDigest != first.simDigest {
			r.op(fmt.Sprintf("session %d disagrees with session 0 on sim_digest", i))
		}
		n := len(st.warm) + len(st.post) + len(st.cold)
		wall, cpu, rss, setup = append(wall, st.wall), append(cpu, st.cpu), append(rss, st.rssMB), append(setup, st.setup)
		raw = append(raw, st.rawWall)
		perS = append(perS, float64(n)/st.wall)
		warm, post, cold = append(warm, st.warm...), append(post, st.post...), append(cold, st.cold...)
		if len(st.coldFull) > 0 {
			slow = append(slow, st.coldFull...)
		} else {
			slow = append(slow, st.cold...) // smoke issues quick cold cells only
		}
	}
	r.set("wall_s", median(wall), "s", len(wall))
	r.set("cpu_s", median(cpu), "s", len(cpu))
	r.set("fast_p50_ms", median(warm)*1e3, "ms", len(warm))
	r.set("slow_p50_ms", median(slow)*1e3, "ms", len(slow))
	r.set("ops_per_s", median(perS), "1/s", len(perS))
	r.set("setup_s", median(setup), "s", len(setup))
	r.exact["sim_digest"] = first.simDigest
	r.exact["oplist_sha256"] = first.opsSHA
	r.info = append(r.info, fmt.Sprintf("sessions: raw wall_s %.3f  daemon peak_rss_mb %.0f", raw, rss), hostLine(e, began, time.Now()))
	r.info = append(r.info, fmt.Sprintf("per session: %d warm GET, %d warm POST, %d cold GET (%d full-scale); pooled warm p99 %.3f ms, POST p50 %.3f ms, cold p90 %.1f ms",
		len(first.warm), len(first.post), len(first.cold), len(first.coldFull),
		percentile(warm, 0.99)*1e3, median(post)*1e3, percentile(cold, 0.9)*1e3))
	return r
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
