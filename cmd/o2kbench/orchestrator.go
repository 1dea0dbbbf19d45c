package main

// The -workers orchestrator (DESIGN.md §5.10): shard a sweep across forked
// worker subprocesses that cooperate through the cache directory's lease
// layer, survive any of them dying, and leave the parent to render the
// merged result.
//
// The design exploits the system's own guarantees instead of adding a
// results channel: every worker runs the same experiment suite with leases
// on (-worker i/N), so each unique cell is computed by exactly one live
// worker and committed to the shared cache; when the workers are done — or
// dead beyond their restart budget — the parent simply runs the suite
// in-process against the now-warm cache. That final pass IS the merge: it
// serves completed cells from disk, computes whatever a crashed fleet left
// missing, and by the simulator's determinism produces stdout byte-identical
// to a single-process run. Total worker failure therefore degrades to
// exactly the single-process behavior, never to a broken report.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
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
	workers   int           // fleet size (>= 2)
	restarts  int           // total respawn budget across the fleet
	chaosKill time.Duration // SIGKILL a random live worker this often (0 = off)
	args      []string      // the fleet's common argv; slot i runs -worker=i/workers before it
}

// orchestrator tracks the live fleet so the signal-drain and chaos-kill
// loops can address workers that respawn under them.
type orchestrator struct {
	cfg orchCfg
	exe string

	mu    sync.Mutex
	live  map[int]*os.Process // by worker slot
	rng   *rand.Rand
	spent atomic.Int64 // respawns consumed

	completed atomic.Int64 // workers that exited by themselves (any exit code)
	gaveUp    atomic.Int64 // slots abandoned with the budget exhausted
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
	o := &orchestrator{
		cfg:  cfg,
		exe:  exe,
		live: make(map[int]*os.Process),
		rng:  rand.New(rand.NewSource(time.Now().UnixNano())),
	}

	var wg sync.WaitGroup
	started := atomic.Int64{}
	for i := 0; i < cfg.workers; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			if o.runSlot(ctx, slot) {
				started.Add(1)
			}
		}(i)
	}

	// Fleet-scoped loops: the chaos killer (the crash-tolerance harness) and
	// the signal drain both stop when every slot has settled.
	fleetDone := make(chan struct{})
	go func() { wg.Wait(); close(fleetDone) }()
	if cfg.chaosKill > 0 {
		go o.chaosLoop(ctx, fleetDone)
	}
	go o.drainLoop(ctx, fleetDone)
	<-fleetDone

	if started.Load() == 0 {
		return fmt.Errorf("workers: none of %d workers could be started", cfg.workers)
	}
	fmt.Fprintf(os.Stderr, "o2kbench: %d worker(s): %d completed, %d respawn(s) used, %d slot(s) gave up\n",
		cfg.workers, o.completed.Load(), o.spent.Load(), o.gaveUp.Load())
	return nil
}

// runSlot keeps worker slot alive until it exits by itself or the restart
// budget runs dry. Returns whether the slot ever started a process.
func (o *orchestrator) runSlot(ctx context.Context, slot int) bool {
	startedOnce := false
	args := append([]string{fmt.Sprintf("-worker=%d/%d", slot, o.cfg.workers)}, o.cfg.args...)
	for {
		cmd := exec.Command(o.exe, args...)
		// The env mirror lets the test binary's TestMain run the same argv
		// through run(); the real binary parses argv and ignores it.
		cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(args, " "))
		cmd.Stdout = io.Discard // the parent's merge pass renders the tables
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "o2kbench: worker %d failed to start: %v\n", slot, err)
			o.gaveUp.Add(1)
			return startedOnce
		}
		startedOnce = true
		o.register(slot, cmd.Process)
		err := cmd.Wait()
		o.unregister(slot)

		if ctx.Err() != nil {
			// Shutdown: the drain loop already signalled the fleet; whatever
			// state the worker exited in, it is not coming back.
			return startedOnce
		}
		if signalled(cmd, err) {
			// Killed (chaos loop, OOM killer, an operator): the cache holds
			// every cell it committed, so a respawn resumes, not restarts.
			if o.spent.Add(1) > int64(o.cfg.restarts) {
				fmt.Fprintf(os.Stderr, "o2kbench: worker %d killed with restart budget exhausted\n", slot)
				o.gaveUp.Add(1)
				return startedOnce
			}
			// Brief jittered pause so a kill storm doesn't respawn the whole
			// fleet in lockstep against the same lease files.
			time.Sleep(time.Duration(20+o.randN(60)) * time.Millisecond)
			continue
		}
		// A voluntary exit — clean (0), partial with failed cells (1), or a
		// usage error (2) — is terminal: exit codes are deterministic here,
		// so a respawn would only reproduce it.
		o.completed.Add(1)
		return startedOnce
	}
}

// signalled reports whether the worker died to a signal rather than exiting.
func signalled(cmd *exec.Cmd, err error) bool {
	if err == nil || cmd.ProcessState == nil {
		return false
	}
	ws, ok := cmd.ProcessState.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled()
}

func (o *orchestrator) register(slot int, p *os.Process) {
	o.mu.Lock()
	o.live[slot] = p
	o.mu.Unlock()
}

func (o *orchestrator) unregister(slot int) {
	o.mu.Lock()
	delete(o.live, slot)
	o.mu.Unlock()
}

func (o *orchestrator) randN(n int) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.rng.Intn(n)
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

// chaosLoop is the chaos harness's killer: every chaosKill interval it
// SIGKILLs one random live worker. It exists so the crash-tolerance story is
// drivable from the CLI (and CI) without an external kill script.
func (o *orchestrator) chaosLoop(ctx context.Context, fleetDone <-chan struct{}) {
	t := time.NewTicker(o.cfg.chaosKill)
	defer t.Stop()
	for {
		select {
		case <-fleetDone:
			return
		case <-ctx.Done():
			return
		case <-t.C:
			o.mu.Lock()
			var victim *os.Process
			if len(o.live) > 0 {
				k := o.rng.Intn(len(o.live))
				for _, p := range o.live {
					if k == 0 {
						victim = p
						break
					}
					k--
				}
			}
			o.mu.Unlock()
			if victim != nil {
				victim.Signal(syscall.SIGKILL)
			}
		}
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
