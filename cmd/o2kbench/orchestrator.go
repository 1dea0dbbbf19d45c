package main

// The -workers orchestrator (DESIGN.md §5.9): run a sweep as forked worker
// subprocesses that cooperate through the cache directory's lease layer,
// and leave the parent to render the merged result.
//
// The design exploits the system's own guarantees instead of adding a
// results channel: every worker runs the same experiment suite with
// -leases, so each unique cell is computed by exactly one live worker and
// committed to the shared cache; when the workers are done — or dead — the
// parent simply runs the suite in-process against the now-warm cache. That
// final pass IS the merge: it serves completed cells from disk, computes
// whatever a killed worker left missing, and by the simulator's determinism
// produces stdout byte-identical to a single-process run. Total worker
// failure therefore degrades to exactly the single-process behavior, never
// to a broken report.

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// drainTimeout bounds how long the orchestrator waits for SIGTERMed workers
// to finish their in-flight cells before escalating to SIGKILL.
const drainTimeout = 20 * time.Second

// orchestrate runs a fleet of workers, each running args plus -leases, to
// completion and returns an error only when not a single worker could be
// started — every lesser failure is absorbed, because the parent's merge
// pass recomputes whatever the fleet did not finish. A worker that dies is
// not replaced: its lease locks die with it, so the rest of the fleet takes
// over its in-flight cells.
//
// The parent's shutdown reaches the fleet through ctx: cancelling it sends
// every live worker a SIGTERM — their own NotifyContext converts it into
// drained FAILED(cancelled) cells and a prompt exit — and a straggler still
// alive drainTimeout later is SIGKILLed, so the parent never hangs on a
// wedged child.
func orchestrate(ctx context.Context, workers int, args []string) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("workers: %w", err)
	}
	argv := append(args, "-leases")
	var fleet []*exec.Cmd
	for slot := range workers {
		cmd := exec.CommandContext(ctx, exe, argv...)
		cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
		cmd.WaitDelay = drainTimeout
		// The env mirror lets the test binary's TestMain run the same argv
		// through run(); the real binary parses argv and ignores it.
		cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(argv, " "))
		cmd.Stderr = os.Stderr // Stdout stays nil: the parent's merge pass renders the tables
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "o2kbench: worker %d failed to start: %v\n", slot, err)
			continue
		}
		fleet = append(fleet, cmd)
	}
	if len(fleet) == 0 {
		return fmt.Errorf("workers: none of %d workers could be started", workers)
	}

	// Waiting in slot order delays no drain: Start gave each command its own
	// watcher of ctx, which sends the SIGTERM and, WaitDelay later, the
	// SIGKILL. Wait's error only restates the exit classified below.
	exited, killed := 0, 0
	for _, cmd := range fleet {
		cmd.Wait()
		if cmd.ProcessState.ExitCode() < 0 { // died to a signal
			killed++
		} else {
			exited++
		}
	}
	fmt.Fprintf(os.Stderr, "o2kbench: %d worker(s): %d exited, %d killed\n", workers, exited, killed)
	return nil
}
