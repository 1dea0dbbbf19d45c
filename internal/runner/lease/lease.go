// Package lease is the cross-process single-flight layer of the persistent
// cell cache (DESIGN.md §5.9): per-cell lock files in the cache directory
// that let N worker processes sharing one cache agree on who computes each
// cell, while surviving any of those workers dying — even by SIGKILL — at
// any instant.
//
// A lease is an exclusive, non-blocking lock (diskcache.FS.Lock, flock(2) on
// the platforms that have it) on a sidecar file `<key>.lease` next to the
// cell's entry in the shard layout of internal/runner/diskcache, and nothing
// else. The kernel drops the lock the moment its holder exits, so whether an
// owner is alive is the kernel's to know, not a clock's to guess. The file's
// bytes mean nothing; a file nobody holds a lock on is free to take, and
// diskcache.Cache.Verify sweeps it.
//
// Every failure on the lock path — EPERM, a platform without flock, an I/O
// error — degrades to Degraded, which callers must treat as "compute
// anyway": the simulator is deterministic and entry commits are
// last-rename-wins, so a broken lease layer can waste work but can never
// change a run's bytes or fail it. Leases make multi-process sweeps
// *economical*; the cache alone already makes them *correct*.
package lease

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"o2k/internal/runner/diskcache"
)

// Poll is how long a waiter on a Busy lease sleeps before it probes the
// cache for the owner's entry and tries the lease again.
const Poll = 15 * time.Millisecond

// Status is the outcome of an Acquire attempt.
type Status int

const (
	// Acquired: the caller owns the lease and must compute the cell, then
	// Release.
	Acquired Status = iota
	// Busy: a live process holds the lock; the caller should poll the cache
	// for the owner's committed entry and re-Acquire if the entry never
	// appears.
	Busy
	// Degraded: the lease machinery failed (I/O error, no flock, …); the
	// caller must compute anyway, without mutual exclusion.
	Degraded
)

func (s Status) String() string {
	switch s {
	case Acquired:
		return "acquired"
	case Busy:
		return "busy"
	default:
		return "degraded"
	}
}

// Event is one lease-protocol action, delivered to Config.Hook. The fleet
// tests' lease-owner audit is built on these: acquire/release events from
// every worker, merged and checked for overlapping holds.
type Event struct {
	Kind  string `json:"ev"` // acquire | release
	Key   string `json:"key"`
	Owner string `json:"owner"`
	TNano int64  `json:"t"` // wall time as unix nanos, for the JSONL audit stream
}

// Config parameterizes a Manager. Dir is required; everything else has a
// working default.
type Config struct {
	Dir  string       // cache directory (diskcache shard layout)
	FS   diskcache.FS // filesystem seam; default OSFS
	Hook func(Event)  // protocol observer; nil = silent
}

// Stats is a snapshot of the manager's protocol counters.
type Stats struct {
	Acquired int64 `json:"acquired"` // leases taken
	Busy     int64 `json:"busy"`     // acquire attempts that found a live foreign holder
	Degraded int64 `json:"degraded"` // lease-path failures degraded to compute-anyway
	Released int64 `json:"released"` // leases released
}

// Manager coordinates this process's leases under one cache directory.
// It is safe for concurrent use by every cell the engine has in flight.
type Manager struct {
	cfg   Config
	owner string // host:pid:token, names this manager in the audit stream

	mu    sync.Mutex
	stats Stats
}

// New returns a Manager over cfg, filling defaults.
func New(cfg Config) *Manager {
	if cfg.FS == nil {
		cfg.FS = diskcache.OSFS{}
	}
	return &Manager{cfg: cfg, owner: newOwner()}
}

// newOwner builds a cluster-unique owner id. The random token tells apart
// two managers of one process (one per engine) and two incarnations of one
// pid.
func newOwner() string {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return fmt.Sprintf("%s:%d:%08x", host, os.Getpid(), rand.Uint32())
}

// Stats snapshots the protocol counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

func (m *Manager) path(key string) string {
	return diskcache.SidecarPath(m.cfg.Dir, key, ".lease")
}

func (m *Manager) emit(kind, key string) {
	if m.cfg.Hook == nil {
		return
	}
	m.cfg.Hook(Event{Kind: kind, Key: key, Owner: m.owner, TNano: time.Now().UnixNano()})
}

// note counts one outcome and returns it.
func (m *Manager) note(st Status) Status {
	m.mu.Lock()
	switch st {
	case Acquired:
		m.stats.Acquired++
	case Busy:
		m.stats.Busy++
	default:
		m.stats.Degraded++
	}
	m.mu.Unlock()
	return st
}

// Acquire attempts to take the lease for key without blocking. On Acquired
// the caller must Release the returned Lease after committing the cell. On
// Busy the lease is nil and a foreign owner is presumed computing: poll the
// cache every Poll and Acquire again, which succeeds as soon as the owner
// releases or dies. On Degraded the lease is nil and the caller must compute
// without one.
func (m *Manager) Acquire(key string) (*Lease, Status) {
	if !diskcache.ValidKey(key) {
		return nil, m.note(Degraded)
	}
	path := m.path(key)
	// The cell's shard directory may not exist yet — leases often precede
	// their entry. A MkdirAll failure surfaces as the Lock error below.
	m.cfg.FS.MkdirAll(filepath.Dir(path), 0o755)
	unlock, err := m.cfg.FS.Lock(path)
	switch {
	case errors.Is(err, diskcache.ErrLocked):
		return nil, m.note(Busy)
	case err != nil:
		return nil, m.note(Degraded)
	}
	m.emit("acquire", key)
	return &Lease{m: m, key: key, path: path, unlock: unlock}, m.note(Acquired)
}

// Lease is a held per-cell lease.
type Lease struct {
	m      *Manager
	key    string
	path   string
	unlock func()
}

// Release removes the lease file, then drops the lock. Call it after the
// cell's outcome is committed to the cache, so a waiter whose next Acquire
// succeeds finds the entry on its re-probe. The release event is emitted
// while the lock is still held, so in the audit stream it precedes the next
// owner's acquire.
func (l *Lease) Release() {
	l.m.emit("release", l.key)
	l.m.cfg.FS.Remove(l.path) // a file left behind is free once unlocked
	l.unlock()
	l.m.mu.Lock()
	l.m.stats.Released++
	l.m.mu.Unlock()
}
