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
	"strings"
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

func TestCLIServeDrainOnSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), mainArgsEnv+"=serve -addr 127.0.0.1:0 -cache "+dir)
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon announces its concrete (port-0-assigned) address on stderr.
	sc := bufio.NewScanner(stderrPipe)
	var base string
	var stderrTail bytes.Buffer
	for sc.Scan() {
		line := sc.Text()
		stderrTail.WriteString(line + "\n")
		if rest, ok := strings.CutPrefix(line, "o2kbench: serving on "); ok {
			base = rest
			break
		}
	}
	if base == "" {
		t.Fatalf("daemon never announced its address; stderr so far:\n%s", stderrTail.String())
	}
	// Keep draining stderr so the child never blocks on a full pipe.
	go func() {
		for sc.Scan() {
			stderrTail.WriteString(sc.Text() + "\n")
		}
	}()

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
		t.Fatalf("request never showed up in /metrics; stderr:\n%s", stderrTail.String())
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed across the drain: %v\nstderr:\n%s", r.err, stderrTail.String())
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
		t.Fatalf("daemon exited uncleanly after SIGTERM: %v\nstderr:\n%s", err, stderrTail.String())
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
		t.Fatalf("no cache entries committed; stderr:\n%s", stderrTail.String())
	}
	if !strings.Contains(stderrTail.String(), "o2kbench: draining") {
		t.Errorf("stderr never announced the drain:\n%s", stderrTail.String())
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
