package runner

import (
	"context"
	"fmt"
	"time"

	"o2k/internal/runner/lease"
)

// This file is the engine's bridge to the cross-process single-flight layer
// (internal/runner/lease, DESIGN.md §5.10). The in-memory memo map and the
// single-flight slot already guarantee each cell is computed once *per
// process*; with a lease manager attached, the owner path of DoCached
// extends that to once *per cache directory*: before computing a
// cache-missed cell, the owner takes the cell's lease, and requesters in
// other processes wait on the committed entry instead of re-simulating.
//
// The layering keeps PR 4's invariant intact: leases gate only *who
// computes*, never *what is served*. Every lease failure degrades to
// computing without exclusion, and a waiter whose foreign owner dies
// re-acquires through the manager's steal path — so a SIGKILLed worker's
// cells are reclaimed after the stale deadline, never orphaned.

// SetLeases attaches a cross-process lease manager. It must be called
// before the first Do, after SetCache (leases without a shared cache have
// nothing to coordinate and are ignored). A nil manager (the default) keeps
// single-flight process-local.
func (e *Engine) SetLeases(m *lease.Manager) { e.leases = m }

// computeShared is the owner path of DoCached when a lease manager is
// attached and the disk probe missed: coordinate with other processes over
// the cell's lease, and either compute under it or adopt the foreign
// owner's committed entry. fromDisk reports the latter — an adopted cell
// never runs its Prepare stage.
func (e *Engine) computeShared(c *cell, rh Hook, codec *Codec, prepare Prepare) (val any, err error, fromDisk bool) {
	ctx, key, label := c.cctx, c.key, c.label
	for {
		l, st := e.leases.Acquire(key)
		switch st {
		case lease.Acquired:
			// Double-check the entry under the lease: between our cache probe
			// and this acquisition, a foreign owner may have committed and
			// released. Re-probing here makes the cold-cell guarantee exact —
			// each key is computed once per cache directory, not once per
			// probe-miss — which the experiment-server fleet test asserts.
			if v, cerr, ok := e.diskLoad(key, codec); ok {
				l.Release()
				return v, cerr, true
			}
			// The lease is held across the cell's Prepare stage as well as its
			// compute: the dependency graph is a DAG (run → plan → structure),
			// so nested acquisitions cannot cycle, and the heartbeat covers
			// the hold. Commit the outcome before releasing: a waiter that
			// sees the lease vanish must find the entry (or conclude the
			// outcome was environmental and compute it itself).
			val, err = e.run(c, rh, prepare)
			e.diskStore(key, codec, val, err)
			l.Release()
			return val, err, false

		case lease.Busy:
			// A live foreign owner is computing. Poll for its entry with
			// jittered backoff; Acquire's observation clock promotes the
			// owner to stale — and us to the steal path — if it dies.
			select {
			case <-time.After(e.leases.PollInterval()):
			case <-ctx.Done():
				return nil, fmt.Errorf("cell %s: %w", label, context.Cause(ctx)), false
			}
			if v, cerr, ok := e.diskLoad(key, codec); ok {
				return v, cerr, true
			}

		default: // lease.Degraded
			// The lease machinery is unusable for this key (I/O error, no
			// hard links, corrupt-and-unremovable lease). Compute without
			// exclusion: worst case is duplicated work, and last-rename-wins
			// on identical bytes keeps the cache coherent.
			val, err = e.run(c, rh, prepare)
			e.diskStore(key, codec, val, err)
			return val, err, false
		}
	}
}
