package main

// Subprocess tests for the multi-process sweep surface (DESIGN.md §5.9):
// flag validation, a worker fleet that loses a worker to SIGKILL — it must
// still produce stdout byte-identical to a single-process run, leave a
// verifiable cache, and never hold one cell's lease from two live owners at
// once — and a fleet drained by SIGTERM on its parent.

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// fleetRun is an o2kbench process started with the lease audit on.
type fleetRun struct {
	cmd       *exec.Cmd
	out, errb bytes.Buffer
	done      chan struct{} // closed once the process has exited
}

// startFleet starts o2kbench with args, its lease audit streaming to
// <audit>.<pid>.jsonl. Cleanup SIGTERMs a run the test left behind, so its
// parent drains any workers it forked.
func startFleet(t *testing.T, args, audit string) *fleetRun {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	r := &fleetRun{cmd: exec.Command(exe), done: make(chan struct{})}
	r.cmd.Env = append(os.Environ(), leaseAuditEnv+"="+audit, mainArgsEnv+"="+args)
	r.cmd.Stdout, r.cmd.Stderr = &r.out, &r.errb
	if err := r.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { r.cmd.Wait(); close(r.done) }()
	t.Cleanup(func() {
		r.cmd.Process.Signal(syscall.SIGTERM)
		<-r.done
	})
	return r
}

// wait returns the run's exit code once it has exited.
func (r *fleetRun) wait() int {
	<-r.done
	return r.cmd.ProcessState.ExitCode()
}

// poll calls found every few milliseconds until it reports true, failing the
// test if the run exits first or a deadline passes.
func (r *fleetRun) poll(t *testing.T, what string, found func() bool) {
	t.Helper()
	deadline := time.After(60 * time.Second)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for !found() {
		select {
		case <-r.done:
			t.Fatalf("run exited before %s (stderr: %s)", what, r.errb.String())
		case <-deadline:
			t.Fatalf("no %s within 60s", what)
		case <-tick.C:
		}
	}
}

// auditPIDs maps the pid of every process with an audit file under prefix to
// whether that file holds an acquire event yet.
func auditPIDs(t *testing.T, prefix string) map[int]bool {
	t.Helper()
	files, err := filepath.Glob(prefix + ".*.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	pids := map[int]bool{}
	for _, f := range files {
		pid, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(f, prefix+"."), ".jsonl"))
		if err != nil {
			t.Fatalf("audit file %s: %v", f, err)
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		pids[pid] = bytes.Contains(data, []byte(`"ev":"acquire"`))
	}
	return pids
}

func TestCLIWorkersValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	cases := []struct {
		args, want string
	}{
		{"-workers 4", "require -cache"},
		{"-leases", "require -cache"},
		{"-workers -1 -cache /tmp/x", ">= 0"},
		{"-worker 0/2 -cache /tmp/x", "flag provided but not defined: -worker"},
	}
	for _, tc := range cases {
		if _, stderr, code := o2kbench(t, tc.args); code != 2 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%q: exit %d, stderr %q; want exit 2 mentioning %q", tc.args, code, stderr, tc.want)
		}
	}
}

func TestCLIWorkersHelpSection(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	_, stderr, _ := o2kbench(t, "-h")
	if !strings.Contains(stderr, "Multi-process sweeps:") {
		t.Fatalf("-help lacks the multi-process section:\n%s", stderr)
	}
}

// auditSession is one owner's hold of one cell's lease, reconstructed from
// the JSONL audit stream.
type auditSession struct {
	key, owner string
	start, end int64 // unix nanos
}

// readAuditSessions merges every audit file under prefix into per-key hold
// intervals. A SIGKILLed worker's file may end mid-line; such tails are
// skipped. Its unclosed sessions end where they start: the kernel dropped
// its locks at an instant the stream does not record.
func readAuditSessions(t *testing.T, prefix string) []auditSession {
	t.Helper()
	files, err := filepath.Glob(prefix + ".*.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	type ev struct {
		Kind  string `json:"ev"`
		Key   string `json:"key"`
		Owner string `json:"owner"`
		T     int64  `json:"t"`
	}
	var events []ev
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			var e ev
			if err := json.Unmarshal(line, &e); err != nil {
				continue // torn tail of a killed worker
			}
			events = append(events, e)
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].T < events[j].T })

	open := map[string]*auditSession{} // by key+owner
	var sessions []auditSession
	for _, e := range events {
		id := e.Key + "|" + e.Owner
		switch e.Kind {
		case "acquire":
			if s, ok := open[id]; ok {
				sessions = append(sessions, *s)
			}
			open[id] = &auditSession{key: e.Key, owner: e.Owner, start: e.T, end: e.T}
		case "release":
			if s, ok := open[id]; ok {
				s.end = e.T
				sessions = append(sessions, *s)
				delete(open, id)
			}
		}
	}
	for _, s := range open {
		sessions = append(sessions, *s) // killed mid-hold: ends at its acquire
	}
	return sessions
}

// TestCLIFleetWorkerKilled is the crash-tolerance acceptance run: a
// 2-worker quick sweep loses a worker to SIGKILL once it holds its first
// lease, yet exits 0 with stdout byte-identical to a single-process run,
// verifies clean, and the lease audit shows no cell ever held by two live
// owners at once. The dead worker is not replaced: its locks die with it, so
// its peer takes its cells on the next poll, and the parent's merge pass
// computes whatever is still missing.
func TestCLIFleetWorkerKilled(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	suite := "-quick -exp all "
	refOut, stderr, code := o2kbench(t, suite)
	if code != 0 {
		t.Fatalf("reference run exited %d (stderr: %s)", code, stderr)
	}

	dir := t.TempDir()
	audit := filepath.Join(dir, "audit")
	fleet := startFleet(t, suite+"-cache "+dir+" -workers 2", audit)
	victim := 0
	fleet.poll(t, "worker acquire in the lease audit", func() bool {
		for pid, acquired := range auditPIDs(t, audit) {
			if acquired {
				victim = pid
				return true
			}
		}
		return false
	})
	if err := syscall.Kill(victim, syscall.SIGKILL); err != nil {
		t.Fatalf("killing worker %d: %v", victim, err)
	}
	if code := fleet.wait(); code != 0 {
		t.Fatalf("fleet run exited %d (stderr: %s)", code, fleet.errb.String())
	}
	if out := fleet.out.String(); out != refOut {
		t.Fatalf("fleet stdout differs from the single-process run:\n--- ref ---\n%s\n--- fleet ---\n%s", refOut, out)
	}
	if !strings.Contains(fleet.errb.String(), " 1 killed") {
		t.Fatalf("fleet summary does not report the killed worker:\n%s", fleet.errb.String())
	}

	if _, stderr, code := o2kbench(t, "-cache "+dir+" -cache-verify"); code != 0 {
		t.Fatalf("-cache-verify after the kill exited %d (stderr: %s)", code, stderr)
	}

	// Lease-owner audit: for every cell, live hold intervals from different
	// owners must not overlap — the mutual-exclusion claim itself.
	sessions := readAuditSessions(t, audit)
	if len(sessions) == 0 {
		t.Fatal("audit stream is empty — leases were never exercised")
	}
	byKey := map[string][]auditSession{}
	for _, s := range sessions {
		byKey[s.key] = append(byKey[s.key], s)
	}
	for key, ss := range byKey {
		sort.Slice(ss, func(i, j int) bool { return ss[i].start < ss[j].start })
		for i := 1; i < len(ss); i++ {
			prev, cur := ss[i-1], ss[i]
			if cur.owner != prev.owner && cur.start < prev.end {
				t.Errorf("cell %s: overlapping holds — %s [%d,%d] vs %s [%d,%d]",
					key, prev.owner, prev.start, prev.end, cur.owner, cur.start, cur.end)
			}
		}
	}
}

// TestCLIFleetDrainOnSIGTERM is the fleet's shutdown path: SIGTERM on the
// parent of a full-scale 2-worker sweep drains both workers, renders the
// unfinished cells FAILED(cancelled), exits 1 with no worker left alive, and
// leaves a cache that verifies clean with no live lease: a drained worker's
// exit drops its locks, so -cache-verify sweeps every leftover lease file.
func TestCLIFleetDrainOnSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	audit := filepath.Join(dir, "audit")
	fleet := startFleet(t, "-exp all -cache "+dir+" -workers 2", audit)
	var workers map[int]bool
	fleet.poll(t, "audit files from both workers", func() bool {
		workers = auditPIDs(t, audit)
		return len(workers) == 2
	})
	if err := fleet.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := fleet.wait(); code != 1 {
		t.Fatalf("drained fleet exited %d, want 1 (stderr: %s)", code, fleet.errb.String())
	}
	if !strings.Contains(fleet.out.String(), "FAILED(cancelled") {
		t.Fatalf("drained fleet rendered no cancelled cell:\n%s", fleet.out.String())
	}
	for pid := range workers {
		if syscall.Kill(pid, 0) == nil {
			t.Errorf("worker %d outlived its drained parent", pid)
		}
	}
	_, stderr, code := o2kbench(t, "-cache "+dir+" -cache-verify")
	if code != 0 {
		t.Fatalf("-cache-verify after the drain exited %d (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, " 0 live lease(s) left") {
		t.Fatalf("-cache-verify after the drain left a live lease (stderr: %s)", stderr)
	}
}
