package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"o2k/internal/runner"
	"o2k/internal/runner/diskcache"
	"o2k/internal/runner/lease"
)

// engineFlags is the one wiring of the cell engine, shared by every front
// end: the one-shot run, the fleet children the orchestrator forks, and
// `o2kbench serve` register the same flags, validate them the same way, and
// build their runner.Engine through build. The fields hold the defaults
// (all zero) before register and the parsed values after.
type engineFlags struct {
	cache   string
	leases  bool
	jobs    int
	timeout time.Duration
}

// register declares the engine flags on fs, with f's current values as the
// defaults.
func (f *engineFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.cache, "cache", f.cache, "persistent cell-cache directory (created if missing), shared with other runs,\nworker fleets and daemons; cache failures degrade to recompute")
	fs.BoolVar(&f.leases, "leases", f.leases, "with -cache: coordinate with other processes on the same cache directory\nthrough per-cell lease files")
	fs.IntVar(&f.jobs, "jobs", f.jobs, "concurrent simulation cells (0 = GOMAXPROCS)")
	fs.DurationVar(&f.timeout, "timeout", f.timeout, "per-cell compute deadline (0 = none); expired cells render FAILED(timeout)")
}

// argv renders f back to command-line arguments, one -name=value per
// registered flag, for fleet children. It walks the same registration the
// parent parsed with, so a flag added to register reaches the workers.
func (f engineFlags) argv() []string {
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	f.register(fs)
	var args []string
	fs.VisitAll(func(fl *flag.Flag) { args = append(args, "-"+fl.Name+"="+fl.Value.String()) })
	return args
}

// validate checks the flags against each other. Every error is a usage error.
func (f *engineFlags) validate() error {
	if f.leases && f.cache == "" {
		return errors.New("-leases requires -cache DIR")
	}
	return nil
}

// build returns the engine: the cell policy, the persistent cache when
// -cache is set, and under -leases cross-process lease coordination over the
// cache directory. A cache that cannot even be opened is a warning, not a
// failure: the engine runs memory-only with identical output.
func (f *engineFlags) build(ctx context.Context) *runner.Engine {
	eng := runner.NewWithPolicy(ctx, f.jobs, runner.Policy{CellTimeout: f.timeout})
	if f.cache == "" {
		return eng
	}
	dc, err := diskcache.Open(f.cache)
	if err != nil {
		fmt.Fprintln(os.Stderr, "o2kbench: cache disabled:", err)
		return eng
	}
	eng.SetCache(dc)
	if f.leases {
		eng.SetLeases(lease.New(lease.Config{Dir: f.cache, Hook: leaseAuditHook()}))
	}
	return eng
}

// leaseAuditEnv, when set to a path prefix, makes every lease-protocol event
// of this process append to <prefix>.<pid>.jsonl. The fleet tests merge
// these streams into the lease-owner audit (no two overlapping holds per
// cell); it is an env var rather than a flag so that it reaches every
// process of a fleet without riding the worker argv.
const leaseAuditEnv = "O2K_LEASE_AUDIT"

// leaseAuditHook wires the lease manager's protocol events to the JSONL
// audit stream named by O2K_LEASE_AUDIT (nil hook when unset). Each process
// appends to its own <prefix>.<pid>.jsonl, so SIGKILL can at worst truncate
// the final line of one file; the fleet tests merge and tolerate that.
func leaseAuditHook() func(lease.Event) {
	prefix := os.Getenv(leaseAuditEnv)
	if prefix == "" {
		return nil
	}
	f, err := os.OpenFile(fmt.Sprintf("%s.%d.jsonl", prefix, os.Getpid()),
		os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		fmt.Fprintln(os.Stderr, "o2kbench: lease audit disabled:", err)
		return nil
	}
	var mu sync.Mutex
	return func(ev lease.Event) {
		data, err := json.Marshal(ev)
		if err != nil {
			return
		}
		data = append(data, '\n')
		mu.Lock()
		f.Write(data)
		mu.Unlock()
	}
}
