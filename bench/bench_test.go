package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"
)

// These tests run the whole harness at smoke scale (-quick passes, one of
// everything, kernels at one iteration) so that `go test ./...` in this
// module exercises every workload and kernel in a few seconds.

func testEnv(t *testing.T) *env {
	t.Helper()
	e, err := newEnv(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func names(ms []metricSpec) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

// leftovers lists what a run left under .bench_build/tmp and any o2kbench
// process still running against a directory there.
func leftovers(t *testing.T, e *env) []string {
	t.Helper()
	var left []string
	entries, err := os.ReadDir(e.tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		left = append(left, "file "+ent.Name())
	}
	procs, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, p := range procs {
		if data, err := os.ReadFile(p); err == nil && bytes.Contains(data, []byte(e.tmp)) {
			left = append(left, "process "+strings.ReplaceAll(string(data), "\x00", " "))
		}
	}
	return left
}

func TestSpecLimits(t *testing.T) {
	spec := testEnv(t).spec
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not [A-Za-z0-9_.-]{1,64}", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range spec.Workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		check("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s (s, lower) among the end-to-end metrics")
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
}

// TestSmokeEmitsDeclaredMetrics: every workload, untraced and traced, emits
// exactly the metric names BENCHMARK.json declares for that mode, fails no
// op, and leaves neither files nor processes behind.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	e := testEnv(t)
	z := sizeFor(0, true)
	ctx := context.Background()
	for _, w := range e.spec.workloadNames() {
		for _, traced := range []bool{false, true} {
			var r *result
			want := names(e.spec.EndToEnd)
			if traced {
				r, want = tracedRun(ctx, e, z, w, 1), names(e.spec.PerLayer)
			} else {
				r = untracedRun(ctx, e, z, w, 1)
			}
			var got []string
			for n := range r.metrics {
				got = append(got, n)
			}
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s traced=%v: emitted metrics differ from BENCHMARK.json\n got: %v\nwant: %v", w, traced, got, want)
			}
			if r.failed > 0 || r.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed: %v", w, traced, r.failed, r.attempted, r.failures)
			}
			if !traced {
				for n, s := range r.metrics {
					if !(s.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, n, s.Value)
					}
				}
			}
			if r.exact["sim_digest"] == "" {
				t.Errorf("%s traced=%v: no sim_digest", w, traced)
			}
		}
	}
	if left := leftovers(t, e); len(left) > 0 {
		t.Errorf("left behind: %v", left)
	}
	if _, err := os.Stat(filepath.Join(e.root, "bench", "out", "trace.json")); err != nil {
		t.Errorf("traced run wrote no span file: %v", err)
	}
}

func TestSeededOpList(t *testing.T) {
	z := sizeFor(24, false)
	a, shaA := genOps(7, z)
	b, shaB := genOps(7, z)
	_, shaC := genOps(8, z)
	if shaA != shaB || len(a) != len(b) {
		t.Error("one seed gave two op lists")
	}
	if shaA == shaC {
		t.Error("two seeds gave one op list")
	}
	cold := map[string]bool{}
	for _, o := range a {
		if o.kind == opColdGet {
			if cold[o.path] {
				t.Errorf("cold cell %s drawn twice", o.path)
			}
			cold[o.path] = true
		}
	}
	for _, h := range hotSet() {
		if cold[h] {
			t.Errorf("cold cell %s is in the hot set", h)
		}
	}
}

// The speedometer reads the host at least every ~40 ms, weighs a short
// interval by the second around it, and a nil one leaves raw seconds alone.
func TestSpeedometer(t *testing.T) {
	s := startSpeedometer()
	from := time.Now()
	time.Sleep(300 * time.Millisecond)
	to := time.Now()
	s.close()
	speed, n := s.over(from, to)
	if n < 5 || speed < 0.05 || speed > 20 {
		t.Errorf("over 300 ms: speed %g from %d readings", speed, n)
	}
	if tiny, m := s.over(to, to); m < 3 || tiny <= 0 {
		t.Errorf("an instant borrowed %d readings (speed %g), want >= 3", m, tiny)
	}
	e := &env{speedo: s}
	if got := e.ref(2, from, to); got != 2*speed {
		t.Errorf("ref(2) = %g, want %g", got, 2*speed)
	}
	if got := (&env{}).ref(2, from, to); got != 2 {
		t.Errorf("ref without a speedometer = %g, want 2", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, q2, q3)
	}
}

// buildDriver compiles this package the way bench/run.sh does.
func buildDriver(t *testing.T, e *env) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestContractLine: in single-workload mode the last stdout line is one JSON
// object with exactly the contract's keys and every declared metric.
func TestContractLine(t *testing.T) {
	e := testEnv(t)
	bin := buildDriver(t, e)
	for trace, declared := range [][]metricSpec{e.spec.EndToEnd, e.spec.PerLayer} {
		cmd := exec.Command(bin, "-smoke", "--workload", "serve_mixed", "--seed", "3", "--seconds", "1", "--trace", []string{"0", "1"}[trace])
		cmd.Dir = e.root
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("trace %d: %v", trace, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var doc map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &doc); err != nil {
			t.Fatalf("trace %d: last line is not JSON: %v", trace, err)
		}
		var keys []string
		for k := range doc {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if strings.Join(keys, " ") != "attempted correct failed metrics" {
			t.Errorf("trace %d: keys %v", trace, keys)
		}
		var metrics map[string]map[string]any
		if err := json.Unmarshal(doc["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(declared) {
			t.Errorf("trace %d: %d metrics, want %d", trace, len(metrics), len(declared))
		}
		for _, m := range declared {
			got, ok := metrics[m.Name]
			if !ok || len(got) != 2 || got["unit"] != m.Unit {
				t.Errorf("trace %d: metric %s = %v, want value and unit %q", trace, m.Name, got, m.Unit)
			}
		}
	}
}

// TestInterruptCleansUp: SIGINT in the middle of a daemon session, or of a
// fleet fill, exits non-zero without a result line and leaves no daemon, no
// orphaned worker and no temp dir.
func TestInterruptCleansUp(t *testing.T) {
	e := testEnv(t)
	bin := buildDriver(t, e)
	for workload, scratch := range map[string]string{"serve_mixed": "serve-*", "cache_cycle": "cache-*"} {
		cmd := exec.Command(bin, "--workload", workload, "--seconds", "8")
		cmd.Dir = e.root
		var out bytes.Buffer
		cmd.Stdout = &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			if m, _ := filepath.Glob(filepath.Join(e.tmp, scratch)); len(m) > 0 {
				break
			}
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				t.Fatalf("%s never got going", workload)
			}
			time.Sleep(10 * time.Millisecond)
		}
		time.Sleep(500 * time.Millisecond) // let the requests, or the workers, get going
		cmd.Process.Signal(syscall.SIGINT)
		if err := cmd.Wait(); err == nil {
			t.Errorf("%s: interrupted run exited 0", workload)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%s: interrupted run printed a result line", workload)
		}
		if left := leftovers(t, e); len(left) > 0 {
			t.Errorf("%s: left behind after SIGINT: %v", workload, left)
		}
	}
}
