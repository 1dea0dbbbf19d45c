package main

// CLI-level subprocess tests: each case re-executes this test binary in
// "main mode" (see TestMain) so flag parsing, exit codes, and artifact
// files are exercised exactly as a shell user sees them — the same idiom
// as the experiments package's SIGKILL-resume test.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"o2k/internal/experiments"
	"o2k/internal/obs"
)

func TestMain(m *testing.M) {
	if args := os.Getenv(mainArgsEnv); args != "" {
		os.Args = append([]string{"o2kbench"}, strings.Fields(args)...)
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// o2kbench runs the CLI with args (whitespace-separated; paths must not
// contain spaces) and returns stdout, stderr, and the exit code.
func o2kbench(t *testing.T, args string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+args)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	switch e := err.(type) {
	case nil:
	case *exec.ExitError:
		code = e.ExitCode()
	default:
		t.Fatalf("running %q: %v", args, err)
	}
	return out.String(), errb.String(), code
}

func TestCLICacheMaintenanceExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()

	if _, stderr, code := o2kbench(t, "-cache-verify"); code != 2 {
		t.Fatalf("-cache-verify without -cache exited %d, want 2 (stderr: %s)", code, stderr)
	}
	if _, stderr, code := o2kbench(t, "-cache-clear"); code != 2 {
		t.Fatalf("-cache-clear without -cache exited %d, want 2 (stderr: %s)", code, stderr)
	}

	// Warm the cache with a real (quick) run, then verify it clean.
	if _, stderr, code := o2kbench(t, "-quick -procs 1,2 -exp mesh-speedup -cache "+dir); code != 0 {
		t.Fatalf("cache-warm run exited %d (stderr: %s)", code, stderr)
	}
	if _, stderr, code := o2kbench(t, "-cache "+dir+" -cache-verify"); code != 0 {
		t.Fatalf("verify of a clean cache exited %d (stderr: %s)", code, stderr)
	}

	// Damage one committed entry: verify reports it once (exit 1), evicts
	// it, and a second verify is clean again.
	var victim string
	filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && victim == "" && filepath.Ext(path) == ".cell" {
			victim = path
		}
		return nil
	})
	if victim == "" {
		t.Fatal("warm run left no cache entries")
	}
	if err := os.WriteFile(victim, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, stderr, code := o2kbench(t, "-cache "+dir+" -cache-verify"); code != 1 {
		t.Fatalf("verify of a damaged cache exited %d, want 1 (stderr: %s)", code, stderr)
	}
	if _, stderr, code := o2kbench(t, "-cache "+dir+" -cache-verify"); code != 0 {
		t.Fatalf("verify did not evict the damaged entry: exited %d (stderr: %s)", code, stderr)
	}

	if _, stderr, code := o2kbench(t, "-cache "+dir+" -cache-clear"); code != 0 {
		t.Fatalf("clear exited %d (stderr: %s)", code, stderr)
	}
	if _, stderr, code := o2kbench(t, "-cache "+dir+" -cache-verify"); code != 0 {
		t.Fatalf("verify after clear exited %d (stderr: %s)", code, stderr)
	}
}

// checkTraceFile validates a -trace artifact and its track shape: at least
// one simulated timeline with minProcs threads, plus host-side cell spans.
func checkTraceFile(t *testing.T, path string, minProcs int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := obs.ValidateChrome(data)
	if err != nil {
		t.Fatalf("%s failed Chrome schema validation: %v", path, err)
	}
	pids := tr.Pids()
	if len(pids) < 2 || pids[0] != 0 {
		t.Fatalf("%s has pids %v, want the host (0) plus >= 1 timeline", path, pids)
	}
	for _, pid := range pids[1:] {
		if threads := tr.Threads(pid); len(threads) < minProcs {
			t.Errorf("%s pid %d: %d threads, want >= %d (one per proc)", path, pid, len(threads), minProcs)
		}
	}
	if len(tr.Spans(0)) == 0 {
		t.Errorf("%s has no runner-cell spans on the host track", path)
	}
}

func TestCLITraceMesh(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	out := filepath.Join(t.TempDir(), "mesh.json")
	_, stderr, code := o2kbench(t, "-quick -procs 1,4 -exp mesh-speedup -trace "+out+" -trace-exp mesh")
	if code != 0 {
		t.Fatalf("trace run exited %d (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "wrote trace") {
		t.Fatalf("no trace confirmation on stderr: %s", stderr)
	}
	checkTraceFile(t, out, 4)
}

func TestCLITraceNBody(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	out := filepath.Join(t.TempDir(), "nbody.json")
	_, stderr, code := o2kbench(t,
		"-quick -procs 1,4 -exp nbody-speedup -trace "+out+" -trace-exp nbody/mp -runreport=json")
	if code != 0 {
		t.Fatalf("trace run exited %d (stderr: %s)", code, stderr)
	}
	checkTraceFile(t, out, 4)
	// -runreport=json puts the machine-readable document (engine report +
	// phase aggregates from the traced run) on stderr.
	for _, want := range []string{`"cells"`, `"phases"`, `"imbalance"`} {
		if !strings.Contains(stderr, want) {
			t.Errorf("-runreport=json stderr lacks %s:\n%s", want, stderr)
		}
	}
}

func TestCLIRunReportModes(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	base := "-quick -procs 1,2 -exp mesh-speedup "

	_, stderr, code := o2kbench(t, base+"-runreport")
	if code != 0 || !strings.Contains(stderr, "cells") || strings.Contains(stderr, `"cells"`) {
		t.Fatalf("bare -runreport should print the text table (code %d, stderr: %s)", code, stderr)
	}
	_, stderr, code = o2kbench(t, base+"-runreport=json")
	if code != 0 || !strings.Contains(stderr, `"cells"`) {
		t.Fatalf("-runreport=json should print JSON to stderr (code %d, stderr: %s)", code, stderr)
	}
	// Bare -runreport follows -format.
	stdout, stderr, code := o2kbench(t, base+"-format json -runreport")
	if code != 0 || !strings.Contains(stderr, `"cells"`) {
		t.Fatalf("bare -runreport with -format json should emit JSON (code %d, stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, `"Title"`) {
		t.Fatalf("-format json stdout is not table JSON:\n%s", stdout)
	}
	if _, stderr, code := o2kbench(t, base+"-runreport=xml"); code != 2 ||
		!strings.Contains(stderr, "text or json") {
		t.Fatalf("-runreport=xml should be a usage error (code %d, stderr: %s)", code, stderr)
	}
	// The old two-flag spelling is gone.
	if _, _, code := o2kbench(t, base+"-runreport-json out.json"); code != 2 {
		t.Fatalf("-runreport-json should no longer parse (code %d)", code)
	}
}

// There is one simulation scheduler and no stall timer: the flags that chose
// between two engines and set the gang's watchdog are gone, not ignored.
func TestCLIEngineFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	for _, args := range []string{"-engine event", "-engine goroutine", "-stalldeadline 1s"} {
		_, stderr, code := o2kbench(t, "-quick -procs 1,4 -exp mesh-speedup "+args)
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined") {
			t.Errorf("%s: code %d, stderr: %s", args, code, stderr)
		}
	}
}

func TestCLIGroupedHelp(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	_, stderr, _ := o2kbench(t, "-h")
	for _, section := range []string{
		"Experiment selection and output:",
		"Engine and execution:",
		"Observability and profiling:",
	} {
		if !strings.Contains(stderr, section) {
			t.Errorf("-help lacks section %q:\n%s", section, stderr)
		}
	}
	if strings.Contains(stderr, "Other:") {
		t.Errorf("-help has unclaimed flags under Other:\n%s", stderr)
	}
}

func TestParseProcsPresets(t *testing.T) {
	ps, err := experiments.ParseProcs("scale1024")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) == 0 || ps[len(ps)-1] != 1024 {
		t.Fatalf("scale1024 preset = %v, want a sweep ending at 1024", ps)
	}
	if ps, err := experiments.ParseProcs("1, 2,4"); err != nil || len(ps) != 3 {
		t.Fatalf("explicit list = %v, %v", ps, err)
	}
	if _, err := experiments.ParseProcs("scale9000"); err == nil ||
		!strings.Contains(err.Error(), "scale1024") {
		t.Fatalf("unknown preset should fail mentioning valid presets, got %v", err)
	}
}

// A bad -trace-exp is refused whether or not a trace flag asks for the
// traced run.
func TestCLIBadTraceTargetFailsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	for _, args := range []string{"-quick -trace-ascii -trace-exp warp", "-quick -exp loc -trace-exp warp"} {
		stdout, stderr, code := o2kbench(t, args)
		if code != 2 {
			t.Fatalf("%s exited %d, want 2 (stderr: %s)", args, code, stderr)
		}
		if stdout != "" {
			t.Fatalf("%s still produced experiment output:\n%s", args, stdout)
		}
		if !strings.Contains(stderr, "unknown trace target") || !strings.Contains(stderr, "mesh, nbody, stencil, cg, hybrid") {
			t.Fatalf("%s: stderr does not name the accepted apps: %s", args, stderr)
		}
	}
}

// A flag value the run cannot honour is a usage error found before any
// work: exit 2, no output, and no cell computed into the cache.
func TestCLIUsageErrorsComputeNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	for _, flag := range []string{"-format yaml", "-trace-exp warp", "-memprofile " + filepath.Join(t.TempDir(), "missing", "m.pprof")} {
		dir := t.TempDir()
		stdout, stderr, code := o2kbench(t, "-quick -exp all -cache "+dir+" "+flag)
		if code != 2 || stdout != "" {
			t.Fatalf("%s exited %d with %d bytes of output, want 2 and none (stderr: %s)", flag, code, len(stdout), stderr)
		}
		cells, _ := filepath.Glob(filepath.Join(dir, "*", "*.cell"))
		if len(cells) != 0 {
			t.Fatalf("%s computed %d cells before refusing", flag, len(cells))
		}
	}
}

// The traced run's plans are the engine's plan cells, so a plan cell that
// fails fails the invocation like any other failed cell: exit 1, not 2. Table
// 5 requests no cell, so here the trace's plans are the only cells asked for.
func TestCLITraceFailedPlanExitsOne(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	stdout, stderr, code := o2kbench(t, "-quick -exp loc -timeout 1ns -trace-ascii -trace-exp mesh")
	if code != 1 {
		t.Fatalf("failed trace plan exited %d, want 1 (stderr: %s)", code, stderr)
	}
	if strings.Contains(stdout, "=== ") {
		t.Fatalf("a timeline was drawn without plans:\n%s", stdout)
	}
	if !strings.Contains(stderr, "trace mesh: ") || !strings.Contains(stderr, "deadline exceeded") {
		t.Fatalf("stderr does not name the failed trace: %s", stderr)
	}
}

// TestFlagsAndREADMEAgree keeps the documented surface and the binary's the
// same set: every flag `o2kbench -h` and `o2kbench serve -h` print is named in
// README.md, and README.md names no o2kbench flag the binary lacks. A README
// mention is a dash token inside an inline code span that starts with a dash
// (`-jobs`, `-procs scale1024`, `-exp/-quick/-procs`) or after "o2kbench" on
// a line (fenced command lines included); flags of other commands are written
// after their command's name (`go test -race`), which keeps them out. The
// counts are the option surface: change them with the flag set, on purpose.
func TestFlagsAndREADMEAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	helpFlag := regexp.MustCompile(`(?m)^  -([a-z][a-z0-9-]*)`)
	binary := map[string]bool{}
	for args, want := range map[string]int{"-h": 20, "serve -h": 8} {
		_, stderr, _ := o2kbench(t, args)
		n := 0
		for _, m := range helpFlag.FindAllStringSubmatch(stderr, -1) {
			binary[m[1]] = true
			n++
		}
		if n != want {
			t.Errorf("o2kbench %s prints %d flags, want %d:\n%s", args, n, want, stderr)
		}
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	dash := regexp.MustCompile(`(?:^|[\s/\[])-([a-z][a-z0-9-]*)`)
	named := map[string]bool{}
	mention := func(text string) {
		for _, m := range dash.FindAllStringSubmatch(text, -1) {
			named[m[1]] = true
		}
	}
	for _, span := range regexp.MustCompile("`(-[^`]*)`").FindAllStringSubmatch(string(readme), -1) {
		mention(span[1])
	}
	for _, line := range strings.Split(string(readme), "\n") {
		if _, after, ok := strings.Cut(line, "o2kbench "); ok {
			mention(" " + strings.ReplaceAll(after, "`", " "))
		}
	}
	for name := range binary {
		if !named[name] {
			t.Errorf("README.md does not mention -%s", name)
		}
	}
	for name := range named {
		if !binary[name] {
			t.Errorf("README.md names -%s, which the binary does not have", name)
		}
	}
}
