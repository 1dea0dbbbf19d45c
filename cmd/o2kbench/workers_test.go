package main

// Subprocess tests for the multi-process sweep surface (DESIGN.md §5.10):
// flag validation, and the chaos acceptance run — a worker fleet under a
// continuous kill loop must still produce stdout byte-identical to a
// single-process run, leave a verifiable cache, and never hold one cell's
// lease from two live owners at once.

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// o2kbenchEnv is o2kbench with extra environment entries (KEY=VALUE).
func o2kbenchEnv(t *testing.T, args string, extraEnv ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(append(os.Environ(), extraEnv...), mainArgsEnv+"="+args)
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

func TestCLIWorkersValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	cases := []struct {
		args, want string
	}{
		{"-workers 4", "require -cache"},
		{"-worker 0/4", "require -cache"},
		{"-leases", "require -cache"},
		{"-workers 4 -worker 0/4 -cache /tmp/x", "mutually exclusive"},
		{"-workers -1 -cache /tmp/x", ">= 0"},
		{"-worker 4/4 -cache /tmp/x", "bad -worker"},
		{"-worker nope -cache /tmp/x", "bad -worker"},
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
// skipped, and its unclosed sessions end at its last observed event.
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
		case "acquire", "steal":
			if s, ok := open[id]; ok {
				sessions = append(sessions, *s)
			}
			open[id] = &auditSession{key: e.Key, owner: e.Owner, start: e.T, end: e.T}
		case "renew":
			if s, ok := open[id]; ok && e.T > s.end {
				s.end = e.T
			}
		case "release", "lost":
			if s, ok := open[id]; ok {
				if e.T > s.end {
					s.end = e.T
				}
				sessions = append(sessions, *s)
				delete(open, id)
			}
		}
	}
	for _, s := range open {
		sessions = append(sessions, *s) // killed mid-hold: ends at last event
	}
	return sessions
}

// TestCLIChaosWorkers is the acceptance run: a 4-worker sweep under a kill
// loop respawns at least one worker, produces byte-identical stdout, verifies
// clean, and the lease audit shows no cell ever held by two live owners at
// once. The respawn budget bounds the unlucky case in which no worker
// outlives the kill cadence long enough to finish: 64 respawns x 100 ms is
// under 7 s before the slots give up and the parent's merge pass computes
// what is missing (a budget of 1024 made that case 103 s).
func TestCLIChaosWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	refDir, chaosDir := t.TempDir(), t.TempDir()
	suite := "-quick -exp all "

	refOut, stderr, code := o2kbench(t, suite+"-cache "+refDir)
	if code != 0 {
		t.Fatalf("reference run exited %d (stderr: %s)", code, stderr)
	}

	audit := filepath.Join(chaosDir, "audit")
	chaosOut, stderr, code := o2kbenchEnv(t,
		suite+"-cache "+chaosDir+" -workers 4 -chaos-kill 100ms -worker-restarts 64",
		leaseAuditEnv+"="+audit)
	if code != 0 {
		t.Fatalf("chaos run exited %d (stderr: %s)", code, stderr)
	}
	if chaosOut != refOut {
		t.Fatalf("chaos-run stdout differs from the single-process run:\n--- ref ---\n%s\n--- chaos ---\n%s", refOut, chaosOut)
	}
	m := regexp.MustCompile(`(\d+) respawn\(s\) used`).FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("no fleet summary on stderr:\n%s", stderr)
	}
	if m[1] == "0" {
		t.Fatalf("the kill loop cost no worker its life — nothing was tested:\n%s", stderr)
	}

	if _, stderr, code := o2kbench(t, "-cache "+chaosDir+" -cache-verify"); code != 0 {
		t.Fatalf("-cache-verify after the chaos run exited %d (stderr: %s)", code, stderr)
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
