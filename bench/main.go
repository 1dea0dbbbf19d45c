// Command bench is the repository's benchmark: the layered o2k ledger.
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   (contract mode, from the repo root)
//	cd bench && go run . -seed 1 [-out A.json]                          (every workload, both modes)
//	cd bench && go run . -compare A.json B.json
//	cd bench && go run . -smoke
//
// End-to-end metrics come from running the real cmd/o2kbench binary with
// tracing off; per-layer metrics come from a separate traced run in which
// this package times its own calls into each layer's exported API. See
// README.md for the metric dictionary and BENCHMARK.json for the
// declaration the driver checks.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

// runRecord is one workload run as -out stores it and -compare reads it.
type runRecord struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]sample `json:"metrics"`
	Exact     map[string]string `json:"exact"`
	Host      hostInfo          `json:"host"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	workload := flag.String("workload", "", "run one workload (paper_cold, scale_cold, cache_cycle, serve_mixed); empty runs all four, traced and untraced")
	seed := flag.Int64("seed", 1, "seed of the generated inputs (the serve_mixed request list)")
	seconds := flag.Int("seconds", 0, "how long one run measures; 0 takes run_seconds from BENCHMARK.json")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	smoke := flag.Bool("smoke", false, "quick-scale pass over every workload and kernel, a few seconds in all")
	out := flag.String("out", "", "append this invocation's runs to a JSON file, for -compare")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments; see -help")
		return 2
	}

	// SIGINT/SIGTERM cancel the context; every child is started under it (or
	// stopped by a deferred call) and every temp dir is removed on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	e, err := newEnv(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *seconds == 0 {
		*seconds = e.spec.RunSeconds
	}
	z := sizeFor(*seconds, *smoke)
	if half := 0.5 * float64(e.host.NProc); e.host.Loadavg1 > half {
		fmt.Fprintf(os.Stderr, "bench: warning: 1-min loadavg %.2f is above half of nproc=%d; timings will be noisy\n", e.host.Loadavg1, e.host.NProc)
	}

	if *workload == "" {
		return runLedger(ctx, e, *seed, *seconds, *smoke, *out)
	}
	known := false
	for _, n := range e.spec.workloadNames() {
		known = known || n == *workload
	}
	if !known {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %v)\n", *workload, e.spec.workloadNames())
		return 2
	}
	return runSingle(ctx, e, z, *workload, *seed, *seconds, *trace, *out)
}

// runSingle is contract mode: one workload, traced or not, ending in the one
// JSON line the driver parses. A run with failed ops still exits 0 — the
// line says correct=false; only a run that could not measure exits non-zero.
func runSingle(ctx context.Context, e *env, z sizing, name string, seed int64, seconds, trace int, out string) int {
	var r *result
	declared := e.spec.EndToEnd
	if trace == 1 {
		r, declared = tracedRun(ctx, e, z, name, seed), e.spec.PerLayer
	} else {
		// End-to-end timings are weighed against the host's speed while they
		// ran; the traced run's kernels share this process and report raw time.
		e.speedo = startSpeedometer()
		r = untracedRun(ctx, e, z, name, seed)
		e.speedo.close()
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "bench: interrupted")
		return 1
	}
	printLedger(e, r, declared, trace == 1)
	rec := runRecord{name, seed, seconds, trace, r.failed == 0, r.attempted, r.failed, r.metrics, r.exact, e.host}
	if err := saveRecords(out, []runRecord{rec}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// Exactly these four keys, and for each declared metric exactly value
	// and unit.
	final := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]map[string]any{}}
	for _, m := range declared {
		s, ok := r.metrics[m.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: metric %s was not measured\n", m.Name)
			return 1
		}
		final.Metrics[m.Name] = map[string]any{"value": s.Value, "unit": s.Unit}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runLedger runs every workload untraced, then traced — each as a child of
// this process in contract mode, so a ledger is exactly the runs the driver
// makes and every run starts in a small, fresh process (see env.run on
// ru_maxrss). With every workload in hand the cross-workload identity rule is
// checked: the cache must reproduce the no-cache suite byte for byte.
func runLedger(ctx context.Context, e *env, seed int64, seconds int, smoke bool, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if out == "" {
		dir, cleanup, err := e.tempDir("ledger")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		defer cleanup()
		out = filepath.Join(dir, "runs.json")
	}
	before, _ := loadRecords(out) // a missing file is an empty ledger
	status := 0
	for _, name := range e.spec.workloadNames() {
		for _, tr := range []string{"0", "1"} {
			args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", tr, "-out", out}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.CommandContext(ctx, self, args...)
			cmd.Dir = e.root
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) } // let it clean up
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s trace=%s: %v\n", name, tr, err)
				status = 1
			}
			if ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "bench: interrupted")
				return 1
			}
		}
	}
	all, err := loadRecords(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	digests := map[string]string{}
	for _, r := range all[len(before):] {
		if r.Trace == 0 {
			digests[r.Workload] = r.Exact["sim_digest"]
		}
		if !r.Correct {
			status = 1
		}
	}
	if digests["cache_cycle"] != digests["paper_cold"] {
		fmt.Printf("FAIL cache_cycle sim_digest %s differs from paper_cold %s\n", digests["cache_cycle"], digests["paper_cold"])
		status = 1
	}
	return status
}

func untracedRun(ctx context.Context, e *env, z sizing, name string, seed int64) *result {
	switch name {
	case "paper_cold":
		return paperCold(ctx, e, z)
	case "scale_cold":
		return scaleCold(ctx, e, z)
	case "cache_cycle":
		return cacheCycle(ctx, e, z, nil)
	default:
		return serveMixed(ctx, e, z, seed)
	}
}

// printLedger prints every metric of one run by name with its unit,
// direction, sample count and bound, then the exact fields and the verdict.
func printLedger(e *env, r *result, declared []metricSpec, traced bool) {
	mode := "end-to-end, tracing off"
	if traced {
		mode = "per-layer, traced run"
	}
	fmt.Printf("== %s (%s) nproc=%d GOMAXPROCS=%d %s loadavg=%.2f\n",
		r.workload, mode, e.host.NProc, e.host.GOMAXPROCS, e.host.Go, e.host.Loadavg1)
	for _, m := range declared {
		s, ok := r.metrics[m.Name]
		if !ok {
			fmt.Printf("  %-40s (not measured)\n", m.Name)
			continue
		}
		bound := ""
		if m.Bound > 0 {
			bound = fmt.Sprintf(" bound=%g%%", m.Bound*100)
		}
		fmt.Printf("  %-40s %14.6g %-6s %-6s n=%d%s\n", m.Name, s.Value, s.Unit, m.Better, s.N, bound)
	}
	keys := make([]string, 0, len(r.exact))
	for k := range r.exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %s = %s\n", k, r.exact[k])
	}
	for _, line := range r.info {
		fmt.Println("  " + line)
	}
	for i, f := range r.failures {
		if i == 5 {
			fmt.Printf("  ... and %d more\n", len(r.failures)-5)
			break
		}
		fmt.Println("  FAILED op: " + f)
	}
	fmt.Printf("  ops attempted=%d failed=%d failed_frac=%g\n", r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
}

// saveRecords appends to the -out file (a JSON array of run records).
func saveRecords(path string, recs []runRecord) error {
	if path == "" {
		return nil
	}
	var all []runRecord
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	all = append(all, recs...)
	data, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
