// Command o2kbench regenerates the study's tables and figures.
//
// Usage:
//
//	o2kbench [-exp name] [-quick] [-procs 1,2,4|preset] [-format text|json] [-list] [-version]
//	         [-jobs N] [-timeout d] [-runreport[=text|json]]
//	         [-cache dir] [-cache-verify] [-cache-clear]
//	         [-workers N] [-worker-restarts N] [-chaos-kill d] [-leases]
//	         [-trace f] [-trace-exp name] [-trace-ascii] [-phasereport]
//	         [-cpuprofile f] [-memprofile f]
//	o2kbench serve [-addr :8080] [-cache dir] [-leases] [-inflight N] [-queue N] ...
//
// `o2kbench serve` runs the engine as a long-running HTTP daemon
// (internal/server, DESIGN.md §5.11): POST /v1/experiments streams per-cell
// NDJSON and finishes with the CLI's exact stdout bytes, GET /v1/cells/...
// answers single-cell queries, and /v1/report, /v1/cache, /healthz, and
// /metrics expose the run telemetry. See serve.go for its flag set.
//
// The flag surface reads as four sections (see -help): experiment
// selection and output, engine and execution, multi-process sweeps, and
// observability and profiling. The engine flags (-cache -leases -jobs
// -timeout) are one engineFlags value (engine.go) that the
// one-shot run, its -worker children, and serve all register, validate, and
// build their engine from.
//
// -procs takes either an explicit comma-separated list or a named preset
// (paper, scale128, scale256, scale1024) for sweeps past the paper's
// 64-processor ceiling; a simulated gang of any size runs on one host thread
// (DESIGN.md §5.7).
//
// The trace flags are the observability subsystem (DESIGN.md §5.6): they
// re-run one application cell with phase-timeline recording enabled —
// -trace-exp selects it ("mesh", "nbody", "stencil", "cg", or "hybrid",
// models narrowed like "mesh/mp"; hybrid is single-model) at
// the largest -procs count — and render it as Chrome trace-event JSON
// (-trace FILE, loadable in Perfetto), a terminal Gantt chart
// (-trace-ascii), or a per-phase min/max/mean/imbalance table
// (-phasereport, stderr). The trace file also carries host-side tracks of
// this invocation's cell lifecycle (compute / memo-hit / disk-hit / dedup
// events from the engine's event hook). Because tracing is a deliberate
// re-simulation outside the memoized engine, stdout of the experiment
// tables is byte-identical whether or not any trace flag is given.
//
// -cache DIR attaches a persistent, crash-safe cell cache (DESIGN.md §5.5):
// completed metrics cells are stored content-addressed under DIR and served
// to later invocations, making repeat runs near-instant. The cache is
// strictly an accelerator — any failure (unreadable directory, corrupt or
// stale entry, failed write) degrades to recomputation with a stderr
// warning and counters under -runreport; stdout bytes and the exit code
// never depend on cache state. -cache-verify scans and evicts bad entries,
// -cache-clear empties the cache; both exit without running experiments.
//
// -workers N (DESIGN.md §5.10) shards the sweep across N forked worker
// subprocesses that coordinate through per-cell lease files in the -cache
// directory (required): each cell is computed by exactly one live worker,
// crashed workers are respawned from a -worker-restarts budget and their
// in-flight cells reclaimed through lease stealing, and the parent merges by
// a final in-process pass over the warm cache — so stdout is byte-identical
// to a single-process run even if every worker dies. -chaos-kill d is the
// built-in chaos harness: it SIGKILLs a random live worker every d.
// SIGINT/SIGTERM on the parent drain the fleet (SIGTERM, then SIGKILL after
// a deadline) before the parent itself exits. -leases joins the same
// coordination from independently-launched processes sharing one cache.
//
// -timeout is the one bound on a cell: a wall-clock deadline on its whole
// computation, so a cell that is merely slow renders FAILED(timeout). A
// deadlocked simulation needs no bound — the scheduler proves the deadlock
// the moment no simulated processor can run (DESIGN.md §5.7) and the cell
// renders FAILED(panic: … stalled …) at once.
//
// -cpuprofile and -memprofile write pprof profiles of the run (the inputs to
// the hot-path work recorded in DESIGN.md §5.4); profiles go to separate
// files and never touch stdout.
//
// Experiments are resolved through the experiments registry: every
// experiment answers to its semantic name (mesh-speedup) and its paper
// alias (fig2); `-list` prints the full index, and `all` runs everything.
// Simulations execute on a shared parallel cell engine (-jobs workers,
// default GOMAXPROCS) that memoizes each unique (application, model,
// machine, workload, P) cell, so `-exp all` costs one simulation per
// unique cell, not one per experiment that mentions it. `-runreport`
// prints the engine's cell/cache statistics to stderr — bare it follows
// -format, `-runreport=json` forces the machine-readable document (report
// plus phase aggregates when tracing ran). stdout carries only the tables
// and stays byte-identical at any -jobs value.
//
// Failure semantics (DESIGN.md §5.3): a cell that panics, exceeds the
// -timeout deadline, or is cancelled (SIGINT/SIGTERM) becomes a
// FAILED(<reason>) table entry; the run continues and every healthy entry
// keeps its exact bytes. Exit status: 0 all cells succeeded, 1 at least
// one cell failed (partial output), 2 usage error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"o2k/internal/core"
	"o2k/internal/experiments"
	"o2k/internal/obs"
	"o2k/internal/runner"
	"o2k/internal/runner/diskcache"
	"o2k/internal/runner/lease"
	"o2k/internal/sim"
)

// mainArgsEnv mirrors a worker's argv into its environment, so the test
// binary (whose TestMain switches on it) exercises the orchestrator's
// spawn path exactly like the real binary does.
const mainArgsEnv = "O2K_MAIN_ARGS"

// listTable renders the experiment index from the registry.
func listTable() *core.Table {
	t := &core.Table{
		Title:  "Experiments",
		Header: []string{"name", "aliases", "description"},
	}
	for _, s := range experiments.List() {
		t.AddRow(s.Name, strings.Join(s.Aliases, ","), s.Title)
	}
	t.AddRow("all", "", "every non-standalone experiment above, in index order")
	return t
}

// parseWorkerSpec parses the -worker value "i/N" into (shard, shards).
func parseWorkerSpec(s string) (shard, shards int, err error) {
	i, n, ok := strings.Cut(s, "/")
	if ok {
		shard, err = strconv.Atoi(i)
		if err == nil {
			shards, err = strconv.Atoi(n)
		}
	}
	if !ok || err != nil || shards < 1 || shard < 0 || shard >= shards {
		return 0, 0, fmt.Errorf("bad -worker %q: want i/N with 0 <= i < N", s)
	}
	return shard, shards, nil
}

// runReportFlag implements -runreport[=text|json]. The bare form means
// "auto": follow -format. An explicit =text or =json forces the mode.
type runReportFlag struct{ mode string }

func (f *runReportFlag) String() string { return f.mode }

// IsBoolFlag lets the flag package accept bare -runreport (parsed as
// Set("true")) while still allowing -runreport=json.
func (f *runReportFlag) IsBoolFlag() bool { return true }

func (f *runReportFlag) Set(s string) error {
	switch s {
	case "true":
		f.mode = "auto"
	case "false":
		f.mode = ""
	case "text", "json":
		f.mode = s
	default:
		return fmt.Errorf("must be text or json (bare -runreport follows -format)")
	}
	return nil
}

// resolve maps the auto mode to the concrete report format.
func (f *runReportFlag) resolve(format string) string {
	if f.mode == "auto" {
		if format == "json" {
			return "json"
		}
		return "text"
	}
	return f.mode
}

// flagGroups is the -help layout: every flag belongs to exactly one of
// four sections so the CLI surface reads as selection/output, engine and
// execution, multi-process sweeps, and observability. usage() appends any
// unclaimed flag under "Other" so a new flag can never silently vanish from
// -help.
var flagGroups = []struct {
	title string
	names []string
}{
	{"Experiment selection and output", []string{
		"exp", "list", "quick", "procs", "format", "version"}},
	{"Engine and execution", []string{
		"jobs", "timeout", "runreport",
		"cache", "cache-verify", "cache-clear"}},
	{"Multi-process sweeps", []string{
		"workers", "worker-restarts", "chaos-kill", "worker", "leases"}},
	{"Observability and profiling", []string{
		"trace", "trace-exp", "trace-ascii", "phasereport",
		"cpuprofile", "memprofile"}},
}

func printFlag(out io.Writer, f *flag.Flag) {
	if f == nil {
		return
	}
	arg, usage := flag.UnquoteUsage(f)
	line := "  -" + f.Name
	if arg != "" {
		line += " " + arg
	}
	fmt.Fprintf(out, "%s\n    \t%s", line, strings.ReplaceAll(usage, "\n", "\n    \t"))
	if f.DefValue != "" && f.DefValue != "false" {
		fmt.Fprintf(out, " (default %s)", f.DefValue)
	}
	fmt.Fprintln(out)
}

func usage() {
	out := flag.CommandLine.Output()
	fmt.Fprint(out, "Usage: o2kbench [flags]\n")
	fmt.Fprint(out, "       o2kbench serve [flags]   (experiment-serving daemon; serve -h for its flags)\n")
	fmt.Fprint(out, "\nRegenerates the study's tables and figures; -list prints the experiment index.\n")
	seen := map[string]bool{}
	for _, g := range flagGroups {
		fmt.Fprintf(out, "\n%s:\n", g.title)
		for _, name := range g.names {
			printFlag(out, flag.Lookup(name))
			seen[name] = true
		}
	}
	var orphans []*flag.Flag
	flag.VisitAll(func(f *flag.Flag) {
		// The test binary registers the testing package's test.* flags on
		// the same FlagSet; they are not part of the CLI surface.
		if !seen[f.Name] && !strings.HasPrefix(f.Name, "test.") {
			orphans = append(orphans, f)
		}
	})
	if len(orphans) > 0 {
		fmt.Fprint(out, "\nOther:\n")
		for _, f := range orphans {
			printFlag(out, f)
		}
	}
}

// cacheMaintenance performs the standalone -cache-clear / -cache-verify
// operations: clear wins when both are given. Exit status: 0 clean, 1 the
// cache had bad entries (verify) or could not be maintained.
func cacheMaintenance(dir string, clear, verify bool) int {
	dc, err := diskcache.Open(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "o2kbench:", err)
		return 1
	}
	if clear {
		n, err := dc.Clear()
		if err != nil {
			fmt.Fprintln(os.Stderr, "o2kbench:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "o2kbench: cleared %d cache entries from %s\n", n, dir)
		return 0
	}
	st, err := dc.Verify()
	if err != nil {
		fmt.Fprintln(os.Stderr, "o2kbench:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "o2kbench: verified %d cache entries: %d bad (%d stale), bad entries evicted; swept %d orphaned tmp file(s)\n",
		st.Checked, st.Bad, st.Stale, st.Tmp)
	// Leases are sidecars, not entries: stale ones (dead workers') are swept
	// on the lease subsystem's own judgement, and live ones never affect the
	// exit status — only bad entries do.
	if st.Leases > 0 {
		ls, lerr := lease.Sweep(dir, nil, 0)
		if lerr != nil {
			fmt.Fprintln(os.Stderr, "o2kbench:", lerr)
		} else {
			fmt.Fprintf(os.Stderr, "o2kbench: swept %d stale lease(s), %d live lease(s) left\n", ls.Swept, ls.Live)
		}
	}
	if st.Bad > 0 {
		return 1
	}
	return 0
}

// writeTrace assembles the Chrome trace file: one virtual-time process per
// traced model run plus the host-side runner track of this invocation.
func writeTrace(path string, traced []experiments.TracedRun, col *obs.Collector) error {
	b := obs.NewBuilder()
	for _, tr := range traced {
		b.AddTimeline(tr.Label, tr.Group)
	}
	b.AddRunnerTrack(col.Events())
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "o2kbench: wrote trace %s (%d timeline(s), %d runner events)\n",
		path, len(traced), col.Len())
	return nil
}

// writeRunReport emits the engine report to stderr: as a text table, or —
// with -runreport=json — as one machine-readable document that also
// carries the phase aggregates when a traced run produced them.
func writeRunReport(mode string, report *runner.Report, phases []obs.RunPhases) error {
	if mode != "json" {
		fmt.Fprint(os.Stderr, "\n"+report.Table().String())
		return nil
	}
	doc := struct {
		*runner.Report
		Phases []obs.RunPhases `json:"phases,omitempty"`
	}{report, phases}
	enc := json.NewEncoder(os.Stderr)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// main delegates to run so that deferred profile writers fire before the
// process exits (os.Exit would skip them).
func main() {
	os.Exit(run())
}

// version prints the build identity: the binary's module/VCS stamp and the
// cache version fence (schema + fingerprint). Two binaries that print the
// same fingerprint share disk-cache entries; differing fingerprints fence
// each other's entries off as stale.
func printVersion() {
	rev, modified := "", ""
	mod := "(devel)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" {
			mod = bi.Main.Version
		}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	fmt.Printf("o2kbench %s\n", mod)
	if rev != "" {
		dirty := ""
		if modified == "true" {
			dirty = " (modified)"
		}
		fmt.Printf("vcs: %s%s\n", rev, dirty)
	}
	fmt.Printf("go: %s\n", runtime.Version())
	fmt.Printf("cache schema: %s\n", diskcache.Schema)
	fmt.Printf("cache fingerprint: %s\n", diskcache.Fingerprint())
}

func run() int {
	// Subcommand dispatch: `o2kbench serve` is the daemon mode (serve.go);
	// everything else is the classic flag-driven one-shot run.
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		return runServe(os.Args[2:])
	}

	var req experiments.Request
	flag.StringVar(&req.Exp, "exp", "all", "experiment to run (-list for the index; 'all' runs everything)")
	flag.BoolVar(&req.Quick, "quick", false, "reduced workloads and processor counts")
	flag.StringVar(&req.Procs, "procs", "", "processor counts: a comma-separated list, or a preset name\n("+strings.Join(experiments.ProcsPresetNames(), ", ")+")")
	format := flag.String("format", "text", "output format: text or json")
	var ef engineFlags
	ef.register(flag.CommandLine)
	var runreport runReportFlag
	flag.Var(&runreport, "runreport", "print the cell cache/timing report to stderr; =text or =json forces the\nformat, bare follows -format")
	cacheVerify := flag.Bool("cache-verify", false, "with -cache: validate every entry, evict bad ones, sweep orphaned temp and\nstale lease files, and exit (1 if any entries were bad)")
	cacheClear := flag.Bool("cache-clear", false, "with -cache: remove every entry and exit")
	workers := flag.Int("workers", 0, "run the sweep as this many worker subprocesses sharing -cache (requires -cache);\nthe parent merges by a final in-process pass over the warm cache")
	workerRestarts := flag.Int("worker-restarts", 32, "with -workers: total respawn budget for workers that die to a signal")
	chaosKill := flag.Duration("chaos-kill", 0, "with -workers: SIGKILL a random live worker this often (chaos harness; 0 = off)")
	workerSpec := flag.String("worker", "", "run as worker i/N of a fleet (set by -workers; requires -cache): enables\nleases with shard bias i of N")
	list := flag.Bool("list", false, "list every experiment name, its aliases, and its description")
	version := flag.Bool("version", false, "print the build identity and cache version fence, then exit")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON file (open in Perfetto / chrome://tracing)")
	traceExp := flag.String("trace-exp", "mesh", "what the trace flags re-run with tracing on:\nmesh, nbody, stencil, or cg (each optionally /MODEL), or hybrid")
	traceASCII := flag.Bool("trace-ascii", false, "print the traced run's phase timeline as a text Gantt chart")
	phaseReport := flag.Bool("phasereport", false, "print per-phase min/max/mean/imbalance of the traced run to stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation (heap) profile to this file at exit")
	flag.Usage = usage
	flag.Parse()

	usageErr := func(err error) int {
		fmt.Fprintln(os.Stderr, "o2kbench:", err)
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return usageErr(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return usageErr(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "o2kbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live allocations, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "o2kbench:", err)
			}
		}()
	}

	if *version {
		printVersion()
		return 0
	}
	if *list {
		fmt.Print(listTable().String())
		return 0
	}

	o, err := req.Opts()
	if err != nil {
		return usageErr(err)
	}

	shard, shards := 0, 1
	if *workerSpec != "" {
		if shard, shards, err = parseWorkerSpec(*workerSpec); err != nil {
			return usageErr(err)
		}
	}
	switch {
	case *workers < 0 || *workerRestarts < 0 || *chaosKill < 0:
		return usageErr(errors.New("-workers, -worker-restarts, and -chaos-kill must be >= 0"))
	case *workers > 1 && *workerSpec != "":
		return usageErr(errors.New("-workers (orchestrate) and -worker (be a worker) are mutually exclusive"))
	case (*workers > 1 || *workerSpec != "" || ef.leases) && ef.cache == "":
		return usageErr(errors.New("-workers/-worker/-leases require -cache DIR (the cache directory is the coordination substrate)"))
	case (*cacheVerify || *cacheClear) && ef.cache == "":
		return usageErr(errors.New("-cache-verify/-cache-clear require -cache DIR"))
	}
	ef.leases = ef.leases || *workerSpec != "" // a worker is a leased process
	if err := ef.validate(); err != nil {
		return usageErr(err)
	}
	if *cacheVerify || *cacheClear {
		return cacheMaintenance(ef.cache, *cacheClear, *cacheVerify)
	}

	// Tracing (DESIGN.md §5.6) re-runs one cell with phase recording on, so
	// the memoized/cached path — and the bytes it produces — stay untouched.
	// Validate the target before paying for the experiment suite.
	tracing := *traceFile != "" || *traceASCII || *phaseReport
	if tracing {
		if err := experiments.CheckTraceTarget(*traceExp); err != nil {
			return usageErr(err)
		}
	}

	// SIGINT/SIGTERM cancel the engine: blocked cell requesters unblock with
	// FAILED(cancelled) entries and the run drains instead of being killed
	// mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *workers > 1 {
		// Orchestrator mode (DESIGN.md §5.10): fork the fleet, let it populate
		// the shared cache under lease coordination, then fall through to the
		// normal in-process run below — against the now-warm cache, that run
		// IS the merge, and it recomputes whatever a crashed fleet left
		// missing. Orchestration failures are therefore only warnings.
		// A worker is this same command line with -worker i/N in place of
		// -workers: the request and the engine flags render themselves.
		if err := orchestrate(ctx, orchCfg{
			workers:   *workers,
			restarts:  *workerRestarts,
			chaosKill: *chaosKill,
			args: append([]string{"-exp=" + req.Exp, "-quick=" + strconv.FormatBool(req.Quick), "-procs=" + req.Procs},
				ef.argv()...),
		}); err != nil {
			fmt.Fprintln(os.Stderr, "o2kbench:", err, "— degrading to a single-process run")
		}
	}

	eng := ef.build(ctx, shard, shards)
	var collector *obs.Collector
	if *traceFile != "" {
		// The trace file carries host-side tracks of this run's cell
		// lifecycle alongside the simulated timelines.
		collector = &obs.Collector{}
		eng.SetHook(collector.Hook())
	}
	tables, err := experiments.RunOnCtx(ctx, eng, req.Exp, o)
	if err != nil {
		return usageErr(err)
	}
	switch *format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
			fmt.Fprintln(os.Stderr, "o2kbench:", err)
			return 1
		}
	case "text":
		fmt.Print(experiments.Render(tables))
	default:
		fmt.Fprintf(os.Stderr, "o2kbench: unknown format %q\n", *format)
		return 2
	}

	report := eng.Report()
	var phases []obs.RunPhases
	if tracing {
		traced, terr := experiments.Trace(*traceExp, o)
		if terr != nil {
			return usageErr(terr)
		}
		phases = make([]obs.RunPhases, len(traced))
		for i, tr := range traced {
			phases[i] = obs.NewRunPhases(tr.Label, tr.Group)
		}
		if *traceASCII {
			for _, tr := range traced {
				fmt.Printf("=== %s ===\n", tr.Label)
				fmt.Print(sim.RenderTimeline(tr.Group, 100))
			}
		}
		if *phaseReport {
			fmt.Fprint(os.Stderr, "\n"+obs.PhaseTable(phases).String())
		}
		if *traceFile != "" {
			if err := writeTrace(*traceFile, traced, collector); err != nil {
				fmt.Fprintln(os.Stderr, "o2kbench:", err)
				return 1
			}
		}
	}
	if mode := runreport.resolve(*format); mode != "" {
		if err := writeRunReport(mode, report, phases); err != nil {
			fmt.Fprintln(os.Stderr, "o2kbench:", err)
			return 1
		}
	}
	if report.Failures > 0 {
		fmt.Fprintf(os.Stderr, "o2kbench: %d cell(s) failed; output is partial (rerun with -runreport for details)\n",
			report.Failures)
		return 1
	}
	return 0
}
