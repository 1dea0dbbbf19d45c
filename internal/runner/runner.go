// Package runner is the concurrent cell engine behind the experiments
// registry. A *cell* is any keyed computation — the experiments layer keys
// one per (application, model, machine config, workload, processor count)
// point of the comparison matrix with a stable content hash (core.CellKey) —
// and the engine guarantees that each unique cell is computed exactly once
// per Engine, however many experiments ask for it. The engine knows no
// application: what a cell is, and how run cells depend on plan and
// structure cells, is the vocabulary of internal/experiments (cells.go
// there); an import-boundary test keeps it that way.
//
// Three mechanisms combine to make `o2kbench -exp all` cost O(unique cells)
// instead of O(experiments × cells):
//
//   - memoization: a completed cell's core.Metrics (or plan set) is cached
//     under its content hash and served to later requesters;
//   - single-flight: a cell requested while already in flight blocks its
//     requester on the one running simulation instead of starting another;
//   - a bounded worker pool: unique cells execute under a semaphore sized
//     from GOMAXPROCS (or the -jobs flag), so an entire experiment suite
//     saturates the host without oversubscribing it.
//
// Because the virtual-time simulator is fully deterministic (DESIGN.md §4),
// a cache hit is provably indistinguishable from a re-run, and table output
// is byte-identical at any worker count. The Engine also records per-cell
// wall time and hit/miss/dedup statistics; Report exposes them as the
// observability hook behind `o2kbench -runreport`.
//
// A cell's dependencies are a stage of the cell (Cell.Prepare), run only where
// the cell itself has to be computed: a cell that is known, in memory or on
// disk, is served without touching anything below it (DESIGN.md §5.7).
//
// Cells carry errors, not just values (DESIGN.md §5.7): a compute that
// panics, times out, or fails is published as the cell's error and served to
// every requester, so one wedged cell degrades one table entry instead of
// deadlocking the run. The engine is cancellable as a whole (NewWithPolicy's
// context) and bounds each compute with a per-cell timeout; every failure is
// final — the simulator is deterministic, so nothing is retried — and is
// memoized in this process only: the disk cache stores values, never failures.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"o2k/internal/runner/diskcache"
	"o2k/internal/runner/lease"
)

// ErrCellAborted is the cancellation cause a cell's compute context carries
// when every requester waiting on the cell has gone away before it completed
// (per-request cancellation, DESIGN.md §5.7). It wraps context.Canceled. The
// last requester leaving also retires the cell from the memo map (and so from
// the report) in the same critical section, so the next request of the same
// key recomputes from scratch as if the cell had never been asked for.
var ErrCellAborted = fmt.Errorf("every requester left: %w", context.Canceled)

// Policy is the engine's fault-tolerance configuration. The zero value means
// no per-cell timeout.
type Policy struct {
	// CellTimeout bounds a cell's compute; 0 means no bound. On expiry the
	// cell's requesters get context.DeadlineExceeded while the compute
	// goroutine keeps its worker slot until it actually returns (a
	// simulation always does: its scheduler turns a deadlock into a
	// *sim.StallError panic at once), so the pool is never oversubscribed.
	CellTimeout time.Duration
}

// Engine memoizes simulation cells and bounds their concurrent execution.
// The zero value is not usable; use New or NewWithPolicy. An Engine is safe
// for concurrent use and is meant to be shared by every experiment of one
// invocation — sharing is where the cross-experiment cache hits come from.
type Engine struct {
	jobs int
	sem  chan struct{}
	pol  Policy
	ctx  context.Context

	cache  *diskcache.Cache // persistent cell cache, nil when memory-only
	leases *lease.Manager   // cross-process single-flight, nil when solo
	hook   Hook             // cell lifecycle observer, nil when silent

	mu    sync.Mutex
	cells map[string]*cell
	seq   uint64 // cells created so far; stamps cell.seq
}

// cell is one memoized computation: the single-flight slot, its result or
// error, and its statistics. val, err, wall and compute are written only by
// the owner goroutine before done is closed; readers must observe done first
// (close(done) is the publication barrier). waiters and completed are guarded
// by the engine mutex: they implement per-request cancellation — every live
// requester (the owner included) holds one reference, and the last reference
// leaving an incomplete cell cancels cctx with ErrCellAborted and retires the
// cell from the memo map.
type cell struct {
	key      string
	label    string
	seq      uint64        // creation order, for stable reports
	kind     string        // codec classification (Codec.Kind), "" if memory-only
	done     chan struct{} // closed once val/err are set
	val      any
	err      error
	wall     time.Duration // the publisher's wall time: probes, Prepare, the compute and its wait for a worker slot
	compute  time.Duration // the part of wall the compute held a worker slot
	fromDisk bool          // value restored from the persistent cache
	hits     atomic.Int64  // requests served after completion
	dedup    atomic.Int64  // requests that waited on the in-flight run

	cctx      context.Context         // compute context: engine ctx + abort
	abort     context.CancelCauseFunc // fired when the last requester leaves
	waiters   int                     // live requesters (engine mutex)
	completed bool                    // outcome published (engine mutex)
}

// New returns an Engine whose worker pool admits jobs concurrent cell
// executions; jobs <= 0 selects GOMAXPROCS. The engine has a zero Policy
// and a background context — use NewWithPolicy for a cell timeout or
// engine-wide cancellation.
func New(jobs int) *Engine {
	return NewWithPolicy(context.Background(), jobs, Policy{})
}

// NewWithPolicy is New with fault-tolerance configuration: cancelling ctx
// aborts every pending and future cell request — blocked requesters unblock
// with ctx's cause, in-flight computes run to completion but publish the
// cancellation — and pol sets the per-cell timeout.
func NewWithPolicy(ctx context.Context, jobs int, pol Policy) *Engine {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return &Engine{
		jobs:  jobs,
		sem:   make(chan struct{}, jobs),
		pol:   pol,
		ctx:   ctx,
		cells: make(map[string]*cell),
	}
}

// Compute is a cell's work once its dependencies are resolved. It receives a
// context cancelled at the per-cell deadline, on engine cancellation, or when
// the cell's last requester leaves; long-running computes may observe it, and
// a simulation that does not still ends (a deadlocked one panics at once with
// a *sim.StallError). It runs holding a worker slot and must not request cells.
type Compute func(ctx context.Context) (any, error)

// Cell is one request of the engine: a keyed computation, where it persists,
// and how to produce it when every cheaper source has missed.
type Cell struct {
	Key   string // stable content hash (core.CellKey)
	Label string // human-readable description for reports and events
	Codec *Codec // persistence of the value; nil keeps the cell memory-only
	// Prepare is the cell's dependency stage: it resolves whatever other
	// cells the work needs and returns the Compute that captures them. The
	// engine calls it at most once per owned miss — after the memo map, the
	// disk and (with leases) the under-lease disk re-check have all missed,
	// before a worker slot is taken, and never for a cell adopted from a
	// foreign lease owner — so a dependency is paid for only where the cell
	// itself has to be computed, and Prepare may request cells without
	// risking the bounded pool, even at -jobs=1. Its context is the cell's
	// compute context (so the last requester leaving aborts the nested
	// waits too) carrying the creating request's hook. An error is the
	// cell's outcome for this engine: memoized, and, like every failure,
	// never persisted.
	Prepare Prepare
}

// Prepare is a cell's dependency stage (see Cell.Prepare).
type Prepare func(ctx context.Context) (Compute, error)

// Ready is the Prepare stage of a cell with no dependencies.
func Ready(compute Compute) Prepare {
	return func(context.Context) (Compute, error) { return compute, nil }
}

// Do returns the memoized result of compute under key, running it at most
// once per Engine: DoCell for a memory-only cell with no dependencies.
func (e *Engine) Do(key, label string, compute Compute) (any, error) {
	return e.DoCached(key, label, nil, compute)
}

// DoCached is Do for cells that also persist across processes: when the
// engine has a cache (SetCache) and codec is non-nil, the owner consults
// the disk before computing and writes a computed value back after. Disk is
// strictly a third tier behind the in-memory map and the single-flight
// slot — a warm entry costs one read, and every disk failure (absent,
// unreadable, corrupt, stale) silently falls through to compute, so cached
// and uncached runs are byte-identical by construction.
func (e *Engine) DoCached(key, label string, codec *Codec, compute Compute) (any, error) {
	return e.DoCell(context.Background(), Cell{Key: key, Label: label, Codec: codec, Prepare: Ready(compute)})
}

// DoCell is the engine's one request entry. It returns the memoized outcome
// of the cell, producing it at most once per Engine. The first requester
// becomes the owner: a detached publisher tries the disk, then prepares the
// dependencies, acquires a worker slot, computes (within the Policy's
// timeout) and publishes; concurrent requesters of the same key
// block on that one execution (single-flight), and later requesters get the
// cached outcome immediately. Failures are outcomes too: a panic, timeout,
// or returned error — of Prepare or of the compute — is published as the
// cell's error to every requester — waiters always unblock, and a
// subsequent request of the same key returns the cached error without
// recomputing. A cell served from the memo map or the disk is served
// without asking whether its dependencies would still resolve.
//
// The request is scoped to ctx: cancelling it abandons this request's wait
// without disturbing the engine or other requesters of the same cell.
//
//   - every live requester of an in-flight cell — the owner included —
//     holds one reference on it; cancelling ctx drops this request out of
//     its wait immediately with ctx's cause;
//   - when the *last* reference leaves a cell that has not completed, the
//     cell's compute context is cancelled with ErrCellAborted: a client
//     disconnect aborts only cells no other request still wants;
//   - in the same critical section the aborted cell is retired — withdrawn
//     from the memo map and the report — so the next request of the same
//     key recomputes at once, as if the cell had never existed, without
//     waiting for the aborted compute to return. Engine-wide cancellation
//     retires nothing.
func (e *Engine) DoCell(ctx context.Context, req Cell) (any, error) {
	key, label := req.Key, req.Label
	rh := requestHook(ctx)
	e.mu.Lock()
	c, found := e.cells[key]
	if found && c.completed {
		e.mu.Unlock()
		<-c.done
		c.hits.Add(1)
		if e.hooked(rh) {
			e.fire(rh, Event{Kind: EventMemoHit, Key: key, Label: label, Start: time.Now(), Err: errMsg(c.err)})
		}
		return c.val, c.err
	}
	if found {
		c.waiters++
	} else {
		c = &cell{key: key, label: label, seq: e.seq, done: make(chan struct{}), waiters: 1}
		e.seq++
		if req.Codec != nil {
			c.kind = req.Codec.Kind
		}
		c.cctx, c.abort = context.WithCancelCause(e.ctx)
		e.cells[key] = c
	}
	e.mu.Unlock()

	var t0 time.Time
	if found {
		c.dedup.Add(1)
		if e.hooked(rh) {
			t0 = time.Now()
		}
	} else {
		// The creator spawns the detached publisher that computes and
		// publishes the outcome, then waits exactly like any other
		// requester — so a creator whose request context is cancelled
		// unblocks immediately while the compute keeps running for (or is
		// aborted on behalf of) the remaining references. The publisher
		// holds no reference of its own; the creator's registration is
		// what keeps a fresh cell's compute alive.
		go e.publish(c, rh, req.Codec, req.Prepare)
	}
	if err := e.await(ctx, c, label); err != nil {
		return nil, err
	}
	if found && e.hooked(rh) {
		e.fire(rh, Event{Kind: EventDedup, Key: key, Label: label, Start: t0, Dur: time.Since(t0), Err: errMsg(c.err)})
	}
	return c.val, c.err
}

// unregister drops one requester reference from c. The last live requester
// leaving an incomplete cell aborts its compute and, unless the engine itself
// is cancelled, retires the cell from the memo map: a request that finds the
// key after this critical section creates a fresh cell, and the aborted
// compute publishes into a cell nobody can look up any more.
func (e *Engine) unregister(c *cell) {
	e.mu.Lock()
	c.waiters--
	if c.waiters == 0 && !c.completed {
		c.abort(ErrCellAborted)
		if e.ctx.Err() == nil {
			delete(e.cells, c.key)
		}
	}
	e.mu.Unlock()
}

// await blocks a registered requester of c until the cell publishes, the
// request is cancelled, or the engine is, and then drops the request's
// reference.
func (e *Engine) await(ctx context.Context, c *cell, label string) error {
	defer e.unregister(c)
	select {
	case <-c.done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("cell %s: %w", label, context.Cause(ctx))
	case <-e.ctx.Done():
		return fmt.Errorf("cell %s: %w", label, context.Cause(e.ctx))
	}
}

// publish is the detached owner of one fresh cell: it resolves the outcome
// (disk, lease-coordinated compute, or plain compute), publishes it, and
// closes done. Whatever happens inside — success, error, panic, timeout,
// abort — done is closed, so no requester can block forever on this key.
func (e *Engine) publish(c *cell, rh Hook, codec *Codec, prepare Prepare) {
	start := time.Now()
	if v, ok := e.diskLoad(c.key, codec); ok {
		c.val, c.fromDisk = v, true
	} else if e.leases != nil && e.cache != nil && codec != nil {
		c.val, c.err, c.fromDisk = e.computeShared(c, rh, codec, prepare)
	} else {
		c.val, c.err = e.run(c, rh, prepare)
		e.diskStore(c.key, codec, c.val, c.err)
	}
	if c.fromDisk && e.hooked(rh) {
		e.fire(rh, Event{Kind: EventDiskHit, Key: c.key, Label: c.label, Start: start, Dur: time.Since(start)})
	}
	c.wall = time.Since(start)

	e.mu.Lock()
	c.completed = true
	e.mu.Unlock()
	close(c.done)
	c.abort(nil) // release the cctx timer/child bookkeeping
}

// run is the owned-miss path of cell c: prepare the dependencies — holding
// no worker slot — then execute the compute once, under the cell's compute
// context (the engine context plus the cell's abort). It returns the outcome
// and records on c how long the compute held a worker slot. A failed Prepare
// stage skips the compute, not the compute event that reports the failure.
func (e *Engine) run(c *cell, rh Hook, prepare Prepare) (val any, err error) {
	compute, err := e.prepare(c.cctx, rh, c.label, prepare)
	var t0 time.Time
	if e.hooked(rh) {
		t0 = time.Now()
	}
	if err == nil {
		val, err, c.compute = e.attempt(c.cctx, c.label, compute)
	}
	if e.hooked(rh) {
		e.fire(rh, Event{Kind: EventCompute, Key: c.key, Label: c.label, Start: t0, Dur: time.Since(t0), Err: errMsg(err)})
	}
	return val, err
}

// prepare runs a cell's dependency stage on the publisher goroutine. The
// nested requests it makes wait under ctx, so they end with the cell, and
// carry the creating request's hook, so the dependencies a request caused
// appear on its event stream. A panic becomes the cell's failure.
func (e *Engine) prepare(ctx context.Context, rh Hook, label string, stage Prepare) (compute Compute, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicError(label, r)
		}
	}()
	return stage(WithRequestHook(ctx, rh))
}

// attempt runs compute once: acquire a worker slot (or fail on engine
// cancellation or cell abort), execute on a child goroutine with panic
// recovery, and wait for the result or the per-cell deadline. The child
// releases the slot when compute actually returns — a timed-out compute
// keeps its slot until then, so the pool never runs more than jobs
// simulations at once. held is how long the attempt had its slot, the wait
// for it excluded.
func (e *Engine) attempt(ctx context.Context, label string, compute Compute) (val any, err error, held time.Duration) {
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, fmt.Errorf("cell %s: %w", label, context.Cause(ctx)), 0
	}
	start := time.Now()

	cancel := context.CancelFunc(func() {})
	if e.pol.CellTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, e.pol.CellTimeout)
	}
	defer cancel()

	type outcome struct {
		val  any
		err  error
		held time.Duration // read before the slot is released, so the holds of one slot never overlap
	}
	ch := make(chan outcome, 1) // buffered: the child never blocks if we left
	go func() {
		defer func() { <-e.sem }()
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: panicError(label, r), held: time.Since(start)}
			}
		}()
		v, err := compute(ctx)
		ch <- outcome{val: v, err: err, held: time.Since(start)}
	}()

	select {
	case out := <-ch:
		return out.val, out.err, out.held
	case <-ctx.Done():
		return nil, fmt.Errorf("cell %s: %w", label, context.Cause(ctx)), time.Since(start)
	}
}

// Warm evaluates fns concurrently and waits for all of them. It is the
// prefetch idiom for experiment builders: fire every cell the table needs,
// let the worker pool execute the unique ones in parallel, then assemble
// the table serially from what are now guaranteed cache hits — the
// assembly order, and hence the output bytes, never depend on the pool.
func (e *Engine) Warm(fns ...func()) {
	var wg sync.WaitGroup
	wg.Add(len(fns))
	for _, fn := range fns {
		go func(f func()) {
			defer wg.Done()
			f()
		}(fn)
	}
	wg.Wait()
}
