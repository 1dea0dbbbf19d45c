package main

// Daemon-mode subprocess tests: the serve subcommand is exercised as a real
// child process (same TestMain re-exec idiom as cli_test.go) so signal
// handling, the drain path, and the stderr port banner are tested exactly as
// an operator sees them.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestCLIVersionFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	stdout, stderr, code := o2kbench(t, "-version")
	if code != 0 {
		t.Fatalf("-version exited %d (stderr: %s)", code, stderr)
	}
	for _, want := range []string{"o2kbench ", "go: go", "cache schema: ", "cache fingerprint: "} {
		if !strings.Contains(stdout, want) {
			t.Errorf("-version output lacks %q:\n%s", want, stdout)
		}
	}
	// The fingerprint fences the disk cache: it must be a stable hex digest,
	// not an empty or per-run value.
	a := fingerprintLine(t, stdout)
	b := fingerprintLine(t, func() string { out, _, _ := o2kbench(t, "-version"); return out }())
	if a == "" || a != b {
		t.Fatalf("fingerprint not stable across runs: %q vs %q", a, b)
	}
}

func fingerprintLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "cache fingerprint: "); ok {
			return rest
		}
	}
	return ""
}

// serveDaemon starts `o2kbench serve` with args on a port the kernel picks
// and returns its base URL, the process, and the stderr it has written so
// far. The daemon is killed at cleanup if the test has not ended it.
func serveDaemon(t *testing.T, args string) (string, *exec.Cmd, func() string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), mainArgsEnv+"=serve -addr 127.0.0.1:0 "+args)
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })

	var (
		mu   sync.Mutex
		tail bytes.Buffer
	)
	stderr := func() string { mu.Lock(); defer mu.Unlock(); return tail.String() }
	// The daemon announces its concrete (port-0-assigned) address on stderr.
	sc := bufio.NewScanner(stderrPipe)
	var base string
	for base == "" && sc.Scan() {
		mu.Lock()
		tail.WriteString(sc.Text() + "\n")
		mu.Unlock()
		base, _ = strings.CutPrefix(sc.Text(), "o2kbench: serving on ")
	}
	if base == "" {
		t.Fatalf("daemon never announced its address; stderr so far:\n%s", stderr())
	}
	// Keep draining stderr so the child never blocks on a full pipe.
	go func() {
		for sc.Scan() {
			mu.Lock()
			tail.WriteString(sc.Text() + "\n")
			mu.Unlock()
		}
	}()
	return base, cmd, stderr
}

func TestCLIServeDrainOnSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	base, cmd, stderrTail := serveDaemon(t, "-cache "+dir)

	// Submit a quick experiment, then SIGTERM the daemon while the request
	// is in flight: drain must let it stream to completion and commit its
	// cells before the process exits cleanly.
	type post struct {
		status int
		body   string
		err    error
	}
	done := make(chan post, 1)
	go func() {
		resp, err := http.Post(base+"/v1/experiments", "application/json",
			strings.NewReader(`{"exp":"regular-control","quick":true}`))
		if err != nil {
			done <- post{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		done <- post{status: resp.StatusCode, body: string(body), err: err}
	}()

	// Wait for admission (visible in the metrics gauge) before signalling.
	admitted := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		resp, err := http.Get(base + "/metrics")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if strings.Contains(string(body), "o2k_requests_pending 1") {
				admitted = true
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !admitted {
		t.Fatalf("request never showed up in /metrics; stderr:\n%s", stderrTail())
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed across the drain: %v\nstderr:\n%s", r.err, stderrTail())
	}
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request got status %d\nbody:\n%s", r.status, r.body)
	}
	// The stream must have reached its result line, exit 0.
	var last struct {
		Type   string `json:"type"`
		Exit   int    `json:"exit"`
		Output string `json:"output"`
	}
	lines := strings.Split(strings.TrimSpace(r.body), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("final stream line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if last.Type != "result" || last.Exit != 0 || last.Output == "" {
		t.Fatalf("drain cut the stream short: type=%q exit=%d output=%d bytes",
			last.Type, last.Exit, len(last.Output))
	}

	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exited uncleanly after SIGTERM: %v\nstderr:\n%s", err, stderrTail())
	}
	// Drain committed the request's cells to the shared cache.
	cells := 0
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".cell" {
			cells++
		}
		return nil
	})
	if cells == 0 {
		t.Fatalf("no cache entries committed; stderr:\n%s", stderrTail())
	}
	if !strings.Contains(stderrTail(), "o2kbench: draining") {
		t.Errorf("stderr never announced the drain:\n%s", stderrTail())
	}
}

// The CLI and the daemon count a request's failures by one rule, the failed
// cells it asked for: a request that fails deterministically exits with the
// same status and names the same number of failed cells on both.
func TestCLIAndServeCountTheSameFailedCells(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	_, stderr, code := o2kbench(t, "-quick -exp regular-control -timeout 1ns")
	m := regexp.MustCompile(`o2kbench: (\d+) cell\(s\) failed`).FindStringSubmatch(stderr)
	if code != 1 || m == nil {
		t.Fatalf("CLI exited %d without a failed-cell count, want 1 (stderr: %s)", code, stderr)
	}
	n, _ := strconv.Atoi(m[1])

	base, _, _ := serveDaemon(t, "-timeout 1ns")
	resp, err := http.Post(base+"/v1/experiments", "application/json",
		strings.NewReader(`{"exp":"regular-control","quick":true}`))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	var res struct {
		Type     string `json:"type"`
		Exit     int    `json:"exit"`
		Failures int    `json:"failures"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Type != "result" {
		t.Fatalf("final stream line is no result (%v): %s", err, lines[len(lines)-1])
	}
	if res.Exit != code || res.Failures != n {
		t.Fatalf("daemon: exit %d, %d failed cells; CLI: exit %d, %d failed cells", res.Exit, res.Failures, code, n)
	}
}

func TestCLIServeUsageErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	if _, stderr, code := o2kbench(t, "serve -leases"); code != 2 ||
		!strings.Contains(stderr, "-leases requires -cache") {
		t.Fatalf("serve -leases without -cache: code=%d stderr=%s", code, stderr)
	}
	if _, stderr, code := o2kbench(t, "serve -engine event"); code != 2 ||
		!strings.Contains(stderr, "flag provided but not defined") {
		t.Fatalf("serve -engine event: code=%d stderr=%s", code, stderr)
	}
	if _, stderr, code := o2kbench(t, "serve extra"); code != 2 ||
		!strings.Contains(stderr, "unexpected argument") {
		t.Fatalf("serve with positional arg: code=%d stderr=%s", code, stderr)
	}
}
