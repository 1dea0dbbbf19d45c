package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricSpec is one metric declaration of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json, the single declaration of what this
// benchmark measures: the driver reads metric names, units, directions and
// bounds from it, and the smoke test checks that what a run emits is exactly
// what the file declares.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func (s *benchSpec) workloadNames() []string {
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return names
}

// hostInfo is the host guard: recorded with every run so two ledgers can be
// told apart when the machines differ.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Loadavg1   float64 `json:"loadavg_1min"`
}

func readHost() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			h.Loadavg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return h
}

// env is what every workload needs: where the repository is, the o2kbench
// binary built from it, and a scratch directory inside the checkout.
type env struct {
	root string // repository root, absolute
	bin  string // .bench_build/bin/o2kbench
	tmp  string // .bench_build/tmp
	spec *benchSpec
	host hostInfo

	// speedo weighs every end-to-end interval against the host's speed while
	// it ran (speedometer.go); nil in a traced run, which reports raw time.
	speedo *speedometer

	buildTime time.Duration // wall of the (usually incremental) go build
	common    *commonLayers // workload-independent per-layer results, computed once per process
}

// findRoot locates the repository from the working directory: the driver is
// started either from the root (bash bench/run.sh) or from bench/ (go run .).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "o2kbench", "main.go")); err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err != nil {
			continue
		}
		return filepath.Abs(dir)
	}
	return "", errors.New("bench: run from the repository root or from bench/ (cmd/o2kbench and BENCHMARK.json not found)")
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	spec := new(benchSpec)
	if err := json.Unmarshal(data, spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

func newEnv(ctx context.Context) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, host: readHost()}
	if e.spec, err = loadSpec(root); err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	e.bin = filepath.Join(build, "bin", "o2kbench")
	e.tmp = filepath.Join(build, "tmp")
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		return nil, err
	}
	// Compiling is never part of a timed op or of setup_s. go build is
	// incremental, so after the first run of a checkout this is a staleness
	// check of a few hundred milliseconds.
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.bin, "./cmd/o2kbench")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/o2kbench: %v\n%s", err, out)
	}
	e.buildTime = time.Since(start)
	return e, nil
}

// tempDir makes a fresh scratch directory under .bench_build/tmp. The caller
// removes it with the returned function on every path.
func (e *env) tempDir(prefix string) (string, func(), error) {
	dir, err := os.MkdirTemp(e.tmp, prefix+"-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// ref turns an interval's raw seconds (wall or CPU) into seconds on the
// reference host: raw x the mean host speed between the two instants.
func (e *env) ref(raw float64, from, to time.Time) float64 {
	if e.speedo == nil {
		return raw
	}
	speed, _ := e.speedo.over(from, to)
	return raw * speed
}

// child is the record of one o2kbench process run to completion.
type child struct {
	args   []string
	began  time.Time
	ended  time.Time
	wall   float64 // seconds
	cpu    float64 // user+sys seconds, the child and its reaped descendants
	sys    float64 // sys seconds alone
	rssMB  float64 // ru_maxrss over the child and its reaped descendants
	stdout []byte
	stderr []byte
	exit   int
	err    error // start failure or context cancellation
}

// run executes the o2kbench binary once and waits for it. Resource usage is
// what wait4 reports for the child: on Linux that covers the child and every
// descendant it reaped, which is how a -workers fleet is priced. One caveat
// shapes the order of work in this package: at exec the kernel seeds a child's
// ru_maxrss with its parent's high-water mark, so a child's peak RSS is only
// meaningful while this process is still small — children whose RSS is
// reported run before the in-process roster and kernels, never after.
func (e *env) run(ctx context.Context, extraEnv []string, args ...string) child {
	cmd := exec.CommandContext(ctx, e.bin, args...)
	cmd.Dir = e.tmp
	cmd.Env = append(os.Environ(), extraEnv...)
	// Its own process group, killed as a group on cancellation: a -workers
	// fleet must not outlive an interrupted fill as orphans.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	c := child{args: args}
	c.began = time.Now()
	err := cmd.Run()
	c.ended = time.Now()
	c.wall = c.ended.Sub(c.began).Seconds()
	c.stdout, c.stderr = out.Bytes(), errb.Bytes()
	if ps := cmd.ProcessState; ps != nil {
		c.exit = ps.ExitCode()
		c.cpu = (ps.UserTime() + ps.SystemTime()).Seconds()
		c.sys = ps.SystemTime().Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			c.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		c.err = err
	}
	if ctx.Err() != nil {
		c.err = ctx.Err()
	}
	return c
}

// problem says why a table-producing pass counts as a failed op: it did not
// start, exited non-zero, or rendered a FAILED(...) cell. Empty means healthy.
func (c child) problem() string {
	switch {
	case c.err != nil:
		return fmt.Sprintf("o2kbench %s: %v", strings.Join(c.args, " "), c.err)
	case c.exit != 0:
		return fmt.Sprintf("o2kbench %s: exit %d: %s", strings.Join(c.args, " "), c.exit, lastLines(c.stderr, 3))
	case bytes.Contains(c.stdout, []byte("FAILED(")):
		return fmt.Sprintf("o2kbench %s: output has a FAILED(...) cell", strings.Join(c.args, " "))
	}
	return ""
}

func lastLines(b []byte, n int) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}
