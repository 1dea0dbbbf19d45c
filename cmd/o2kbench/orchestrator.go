package main

// The -workers orchestrator (DESIGN.md §5.9): shard a sweep across forked
// worker subprocesses that cooperate through the cache directory's lease
// layer, and leave the parent to render the merged result.
//
// The design exploits the system's own guarantees instead of adding a
// results channel: every worker runs the same experiment suite with leases
// on (-worker i/N), so each unique cell is computed by exactly one live
// worker and committed to the shared cache; when the workers are done — or
// dead — the parent simply runs the suite in-process against the now-warm
// cache. That final pass IS the merge: it serves completed cells from disk,
// computes whatever a killed worker left missing, and by the simulator's
// determinism produces stdout byte-identical to a single-process run. Total
// worker failure therefore degrades to exactly the single-process behavior,
// never to a broken report.

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// drainTimeout bounds how long the orchestrator waits for SIGTERMed workers
// to finish their in-flight cells before escalating to SIGKILL.
const drainTimeout = 20 * time.Second

// orchCfg parameterizes one worker fleet.
type orchCfg struct {
	workers int      // fleet size (>= 2)
	args    []string // the fleet's common argv; slot i runs -worker=i/workers before it
}

// orchestrator tracks the live fleet so the signal-drain loop can address it.
type orchestrator struct {
	cfg orchCfg
	exe string

	mu   sync.Mutex
	live map[int]*os.Process // by worker slot

	exited atomic.Int64 // workers that exited by themselves (any exit code)
	killed atomic.Int64 // workers that died to a signal
}

// orchestrate runs the fleet to completion (or cancellation) and returns an
// error only when not a single worker could be started — every lesser
// failure is absorbed, because the parent's merge pass recomputes whatever
// the fleet did not finish.
func orchestrate(ctx context.Context, cfg orchCfg) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("workers: %w", err)
	}
	o := &orchestrator{cfg: cfg, exe: exe, live: make(map[int]*os.Process)}

	var wg sync.WaitGroup
	for i := 0; i < cfg.workers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			o.runSlot(slot)
		}(i)
	}

	// The signal drain stops when every slot has settled.
	fleetDone := make(chan struct{})
	go func() { wg.Wait(); close(fleetDone) }()
	go o.drainLoop(ctx, fleetDone)
	<-fleetDone

	if o.exited.Load()+o.killed.Load() == 0 {
		return fmt.Errorf("workers: none of %d workers could be started", cfg.workers)
	}
	fmt.Fprintf(os.Stderr, "o2kbench: %d worker(s): %d exited, %d killed\n",
		cfg.workers, o.exited.Load(), o.killed.Load())
	return nil
}

// runSlot starts worker slot once and waits for it. A worker that dies is
// not replaced: its lease locks die with it, so the rest of the fleet takes
// over its in-flight cells, and the parent's merge pass computes whatever is still missing.
func (o *orchestrator) runSlot(slot int) {
	args := append([]string{fmt.Sprintf("-worker=%d/%d", slot, o.cfg.workers)}, o.cfg.args...)
	cmd := exec.Command(o.exe, args...)
	// The env mirror lets the test binary's TestMain run the same argv
	// through run(); the real binary parses argv and ignores it.
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(args, " "))
	cmd.Stdout = io.Discard // the parent's merge pass renders the tables
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "o2kbench: worker %d failed to start: %v\n", slot, err)
		return
	}
	o.mu.Lock()
	o.live[slot] = cmd.Process
	o.mu.Unlock()
	cmd.Wait()
	o.mu.Lock()
	delete(o.live, slot)
	o.mu.Unlock()

	if cmd.ProcessState.ExitCode() < 0 { // died to a signal
		o.killed.Add(1)
	} else {
		o.exited.Add(1)
	}
}

// signalAll sends sig to every live worker. Errors are ignored: a worker
// that exited between the snapshot and the signal needs no signalling.
func (o *orchestrator) signalAll(sig os.Signal) {
	o.mu.Lock()
	procs := make([]*os.Process, 0, len(o.live))
	for _, p := range o.live {
		procs = append(procs, p)
	}
	o.mu.Unlock()
	for _, p := range procs {
		p.Signal(sig)
	}
}

// drainLoop propagates the parent's shutdown to the fleet: on context
// cancellation (SIGINT/SIGTERM on the parent) every live worker gets a
// SIGTERM — their own NotifyContext converts it into drained FAILED(
// cancelled) cells and a prompt exit — and any straggler still alive after
// drainTimeout is SIGKILLed so the parent never hangs on a wedged child.
func (o *orchestrator) drainLoop(ctx context.Context, fleetDone <-chan struct{}) {
	select {
	case <-fleetDone:
		return
	case <-ctx.Done():
	}
	o.signalAll(syscall.SIGTERM)
	select {
	case <-fleetDone:
	case <-time.After(drainTimeout):
		o.signalAll(syscall.SIGKILL)
	}
}
