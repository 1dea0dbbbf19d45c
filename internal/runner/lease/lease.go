// Package lease is the cross-process single-flight layer of the persistent
// cell cache (DESIGN.md §5.9): per-cell lease files in the cache directory
// that let N worker processes sharing one cache agree on who computes each
// cell, while surviving any of those workers dying — even by SIGKILL — at
// any instant.
//
// A lease is a sidecar file `<key>.lease` next to the cell's entry in the
// shard layout of internal/runner/diskcache. Its one-line JSON record names
// the owner (host:pid:token), a monotonically increasing heartbeat sequence,
// and the writer's wall-clock heartbeat timestamp. The protocol:
//
//   - acquire: write the record to a temp file and hard-Link it to the lease
//     path. Link is POSIX's atomic create-exclusive across processes — two
//     racing acquirers get exactly one winner, with no lock server and no
//     O_EXCL dependence on the FS seam's WriteFile.
//   - renew: a heartbeat goroutine rewrites the record (seq+1, fresh
//     timestamp) via temp-file + rename every Heartbeat interval, first
//     re-reading the file to confirm it still owns it; discovering a foreign
//     owner marks the lease lost instead of clobbering the thief.
//   - steal: an observer considers a lease stale only after its *content*
//     (owner, seq) has not changed for Stale on the observer's own clock —
//     never by comparing the embedded timestamp against local time, so
//     cross-process clock skew cannot trigger a steal. A stale lease is
//     stolen by re-reading after a randomized backoff, removing it, and
//     re-acquiring through the normal Link path; after winning, the thief
//     waits a grace period and re-verifies ownership before reporting
//     Acquired, closing most of the window against a zombie owner's
//     in-flight renewal.
//
// Every failure on any of those paths — EPERM, a filesystem without hard
// links, a lost rename, a corrupt lease record that cannot be removed —
// degrades to Degraded, which callers must treat as "compute anyway": the
// simulator is deterministic and entry commits are last-rename-wins, so a
// broken lease layer can waste work but can never change a run's bytes or
// fail it. This extends PR 4's cache invariant one level up: leases make
// multi-process sweeps *economical*, the cache alone already makes them
// *correct*.
package lease

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"o2k/internal/runner/diskcache"
)

// Defaults for Config's tuning knobs. Heartbeat and Stale trade reclaim
// latency against steal safety: a SIGKILLed owner's cells come back after
// ~Stale, while a live owner would have to pause for the whole Stale window
// (Stale/Heartbeat = 20 missed heartbeats) to be stolen from.
const (
	DefaultHeartbeat = 100 * time.Millisecond
	DefaultStale     = 2 * time.Second
	DefaultPoll      = 15 * time.Millisecond
	DefaultGrace     = 150 * time.Millisecond // foreign-shard deference window
)

// Status is the outcome of an Acquire attempt.
type Status int

const (
	// Acquired: the caller owns the lease and must compute the cell, then
	// Release.
	Acquired Status = iota
	// Busy: a foreign live lease (or a shard-deference grace period) covers
	// the key; the caller should poll the cache for the owner's committed
	// entry and re-Acquire if the entry never appears.
	Busy
	// Degraded: the lease machinery failed (I/O error, no hard links, …);
	// the caller must compute anyway, without mutual exclusion.
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

// record is the lease file's one-line JSON body.
type record struct {
	Key   string `json:"key"`
	Owner string `json:"owner"`
	Seq   int64  `json:"seq"` // heartbeat sequence, bumped on every renewal
	HB    int64  `json:"hb"`  // writer-clock heartbeat, unix nanos (Sweep only)
}

// Event is one lease-protocol action, delivered to Config.Hook. The chaos
// harness's lease-owner audit is built on these: acquire/renew/release/lost
// events from every worker, merged and checked for overlapping holds.
type Event struct {
	Kind  string `json:"ev"` // acquire | steal | renew | release | lost
	Key   string `json:"key"`
	Owner string `json:"owner"`
	Seq   int64  `json:"seq"`
	TNano int64  `json:"t"` // wall time as unix nanos, for the JSONL audit stream
}

// Config parameterizes a Manager. Dir is required; everything else has a
// working default.
type Config struct {
	Dir   string       // cache directory (diskcache shard layout)
	Owner string       // unique owner id; default host:pid:token
	FS    diskcache.FS // filesystem seam; default OSFS

	Heartbeat time.Duration // renewal interval; default DefaultHeartbeat
	Stale     time.Duration // steal after this much observed silence; default DefaultStale
	Poll      time.Duration // waiter poll interval hint; default DefaultPoll
	Grace     time.Duration // foreign-shard deference window; default DefaultGrace

	// Shard/Shards bias (never partition) the cell space: an acquirer whose
	// key hashes to a foreign shard defers to that shard's owner for Grace
	// before competing, so N workers spread across the space yet any worker
	// can still cover a dead peer's cells. Shards <= 1 disables deference.
	Shard, Shards int

	Seed int64       // seeds steal backoff + poll jitter; 0 derives per-process
	Hook func(Event) // protocol observer; nil = silent
}

// Stats is a snapshot of the manager's protocol counters.
type Stats struct {
	Acquired int64 `json:"acquired"` // leases taken (including steals)
	Stolen   int64 `json:"stolen"`   // of Acquired, taken from a stale owner
	Busy     int64 `json:"busy"`     // acquire attempts that found a live foreign lease
	Degraded int64 `json:"degraded"` // lease-path failures degraded to compute-anyway
	Released int64 `json:"released"` // leases released intact
	Lost     int64 `json:"lost"`     // leases observed stolen out from under us
}

// observation is what the manager last saw in a foreign lease file, with
// the local-clock time it first saw that exact content.
type observation struct {
	owner string
	seq   int64
	since time.Time
}

// Manager coordinates this process's leases under one cache directory.
// It is safe for concurrent use by every cell the engine has in flight.
type Manager struct {
	cfg Config

	mu    sync.Mutex
	rng   *rand.Rand
	seen  map[string]observation // foreign-lease staleness observations
	grace map[string]time.Time   // free-lease shard-deference start times
	stats Stats
}

// tmpSeq disambiguates temp files process-wide: two Managers over one
// directory in one process (one per engine) share a pid, so a per-Manager
// counter would let their temp writes collide — and a collision here is not
// cosmetic, it could Link another manager's record under our name.
var tmpSeq atomic.Int64

// New returns a Manager over cfg, filling defaults.
func New(cfg Config) *Manager {
	if cfg.FS == nil {
		cfg.FS = diskcache.OSFS{}
	}
	if cfg.Owner == "" {
		cfg.Owner = defaultOwner()
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	if cfg.Stale <= 0 {
		cfg.Stale = DefaultStale
	}
	if cfg.Poll <= 0 {
		cfg.Poll = DefaultPoll
	}
	if cfg.Grace < 0 {
		cfg.Grace = 0
	} else if cfg.Grace == 0 {
		cfg.Grace = DefaultGrace
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano() ^ int64(os.Getpid())<<32
	}
	return &Manager{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(seed)),
		seen:  make(map[string]observation),
		grace: make(map[string]time.Time),
	}
}

// defaultOwner builds a cluster-unique owner id. The random token makes two
// incarnations of one pid distinguishable, so a respawned worker never
// mistakes its predecessor's lease for its own.
func defaultOwner() string {
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

// PollInterval returns a jittered waiter-poll sleep: uniformly
// [Poll/2, Poll*3/2), so N waiters on one owner spread their cache probes
// instead of stampeding in lockstep.
func (m *Manager) PollInterval() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.cfg.Poll
	return p/2 + time.Duration(m.rng.Int63n(int64(p)+1))
}

func (m *Manager) path(key string) string {
	return diskcache.SidecarPath(m.cfg.Dir, key, ".lease")
}

func (m *Manager) emit(kind, key string, seq int64) {
	if m.cfg.Hook == nil {
		return
	}
	m.cfg.Hook(Event{Kind: kind, Key: key, Owner: m.cfg.Owner, Seq: seq, TNano: time.Now().UnixNano()})
}

func (m *Manager) note(counter *int64) {
	m.mu.Lock()
	*counter++
	m.mu.Unlock()
}

// Acquire attempts to take the lease for key. On Acquired the returned Lease
// is live (heartbeating) and the caller must Release it after committing the
// cell. On Busy the lease is nil and a foreign owner is presumed computing.
// On Degraded the lease is nil and the caller must compute without one.
//
// Acquire never blocks on a live foreign lease — staleness is judged from
// this manager's accumulated observations, so callers are expected to poll:
// Busy now, re-Acquire after a PollInterval, and the steal logic engages by
// itself once the foreign owner has been silent for Stale.
func (m *Manager) Acquire(key string) (*Lease, Status) {
	if !diskcache.ValidKey(key) {
		m.note(&m.stats.Degraded)
		return nil, Degraded
	}
	path := m.path(key)
	data, err := m.cfg.FS.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		if m.deferToShardOwner(key) {
			m.note(&m.stats.Busy)
			return nil, Busy
		}
		return m.take(key, path, false)
	case err != nil:
		m.note(&m.stats.Degraded)
		return nil, Degraded
	}

	rec, perr := parseRecord(data)
	if perr != nil || rec.Key != key {
		// A lease file that doesn't parse (or answers for the wrong key) is
		// garbage — bit rot, a torn tool, a doctored file. It can't be
		// heartbeating, so remove it and take its place; if even the removal
		// fails, fall back to computing without exclusion.
		if rerr := m.cfg.FS.Remove(path); rerr != nil && !errors.Is(rerr, fs.ErrNotExist) {
			m.note(&m.stats.Degraded)
			return nil, Degraded
		}
		return m.take(key, path, true)
	}

	if !m.observedStale(key, rec) {
		m.note(&m.stats.Busy)
		return nil, Busy
	}

	// The owner has been silent past the stale deadline on our clock.
	// Randomized backoff desynchronizes competing stealers, then a re-read
	// confirms the silence really is ongoing before anything is removed.
	m.backoffSleep()
	data2, err2 := m.cfg.FS.ReadFile(path)
	switch {
	case errors.Is(err2, fs.ErrNotExist):
		return m.take(key, path, true)
	case err2 != nil:
		m.note(&m.stats.Degraded)
		return nil, Degraded
	}
	rec2, perr2 := parseRecord(data2)
	if perr2 == nil && (rec2.Owner != rec.Owner || rec2.Seq != rec.Seq) {
		// The owner came back (or someone else already stole and is
		// heartbeating): restart our observation window.
		m.observe(key, rec2)
		m.note(&m.stats.Busy)
		return nil, Busy
	}
	if rerr := m.cfg.FS.Remove(path); rerr != nil && !errors.Is(rerr, fs.ErrNotExist) {
		m.note(&m.stats.Degraded)
		return nil, Degraded
	}
	return m.take(key, path, true)
}

// take attempts the atomic create-exclusive acquisition, and on success
// starts the heartbeat. steal marks the acquisition as a reclaim for the
// stats and the audit stream, and arms the post-steal verification grace.
func (m *Manager) take(key, path string, steal bool) (*Lease, Status) {
	rec := record{Key: key, Owner: m.cfg.Owner, Seq: 1, HB: time.Now().UnixNano()}
	data, err := json.Marshal(rec)
	if err != nil {
		m.note(&m.stats.Degraded)
		return nil, Degraded
	}
	data = append(data, '\n')
	tmp := m.tmpPath(path)
	// The cell's shard directory may not exist yet — leases often precede
	// their entry. A MkdirAll failure surfaces as the WriteFile error below.
	m.cfg.FS.MkdirAll(filepath.Dir(path), 0o755)
	if err := m.cfg.FS.WriteFile(tmp, data, 0o644); err != nil {
		m.note(&m.stats.Degraded)
		return nil, Degraded
	}
	lerr := m.cfg.FS.Link(tmp, path)
	m.cfg.FS.Remove(tmp)
	if lerr != nil {
		if errors.Is(lerr, fs.ErrExist) {
			// Lost the race to another acquirer; from here on it is a live
			// foreign lease.
			m.forget(key)
			m.note(&m.stats.Busy)
			return nil, Busy
		}
		m.note(&m.stats.Degraded)
		return nil, Degraded
	}

	if steal {
		// Post-steal verification: give a zombie owner whose clobbering
		// renewal raced our steal one heartbeat to surface, and yield if it
		// did. This shrinks the double-hold window to a pause landing inside
		// a microsecond-scale syscall gap (see DESIGN.md §5.9's failure
		// matrix); determinism and last-rename-wins make even that window
		// harmless to correctness.
		time.Sleep(m.cfg.Heartbeat)
		cur, err := m.cfg.FS.ReadFile(path)
		if err == nil {
			if rec2, perr := parseRecord(cur); perr == nil && rec2.Owner != m.cfg.Owner {
				m.observe(key, rec2)
				m.note(&m.stats.Busy)
				return nil, Busy
			}
		}
	}

	m.forget(key)
	m.mu.Lock()
	m.stats.Acquired++
	if steal {
		m.stats.Stolen++
	}
	m.mu.Unlock()

	l := &Lease{
		m:    m,
		key:  key,
		path: path,
		rec:  rec,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if steal {
		m.emit("steal", key, rec.Seq)
	} else {
		m.emit("acquire", key, rec.Seq)
	}
	go l.heartbeat()
	return l, Acquired
}

// tmpPath disambiguates concurrent acquisitions process-wide.
func (m *Manager) tmpPath(path string) string {
	return fmt.Sprintf("%s.tmp.%d.%d", path, os.Getpid(), tmpSeq.Add(1))
}

// deferToShardOwner implements the shard bias: for a free lease on a
// foreign-shard key, wait out a Grace window (starting at first sight) to
// give the preferred worker time to claim it. Returns true while deferring.
func (m *Manager) deferToShardOwner(key string) bool {
	if m.cfg.Shards <= 1 || shardOf(key, m.cfg.Shards) == m.cfg.Shard || m.cfg.Grace <= 0 {
		return false
	}
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	start, ok := m.grace[key]
	if !ok {
		m.grace[key] = now
		return true
	}
	return now.Sub(start) < m.cfg.Grace
}

// shardOf maps a cell key to one of n shards (FNV-1a over the key bytes): the
// shard whose manager claims a free lease on the key without deferring.
func shardOf(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// observedStale reports whether key's lease content has been unchanged for
// at least Stale on the local clock, tracking observations as a side effect.
func (m *Manager) observedStale(key string, rec record) bool {
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	ob, ok := m.seen[key]
	if !ok || ob.owner != rec.Owner || ob.seq != rec.Seq {
		m.seen[key] = observation{owner: rec.Owner, seq: rec.Seq, since: now}
		return false
	}
	return now.Sub(ob.since) >= m.cfg.Stale
}

// observe records rec as key's current content, restarting the staleness
// window.
func (m *Manager) observe(key string, rec record) {
	m.mu.Lock()
	m.seen[key] = observation{owner: rec.Owner, seq: rec.Seq, since: time.Now()}
	m.mu.Unlock()
}

// forget drops key's observation and grace state (the lease changed hands or
// disappeared; stale bookkeeping must restart from scratch).
func (m *Manager) forget(key string) {
	m.mu.Lock()
	delete(m.seen, key)
	delete(m.grace, key)
	m.mu.Unlock()
}

// backoffSleep sleeps a random fraction of a heartbeat before a steal, so
// competing stealers don't remove/link in lockstep.
func (m *Manager) backoffSleep() {
	m.mu.Lock()
	d := time.Duration(m.rng.Int63n(int64(m.cfg.Heartbeat) + 1))
	m.mu.Unlock()
	time.Sleep(d)
}

func parseRecord(data []byte) (record, error) {
	var r record
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return r, err
	}
	if r.Owner == "" {
		return r, errors.New("lease: record has no owner")
	}
	return r, nil
}

// Lease is a held per-cell lease: a background heartbeat renews it until
// Release (or until it is observed stolen).
type Lease struct {
	m    *Manager
	key  string
	path string

	mu   sync.Mutex
	rec  record
	lost bool

	stop chan struct{} // closed by Release
	done chan struct{} // closed when the heartbeat goroutine exits
}

func (l *Lease) heartbeat() {
	defer close(l.done)
	t := time.NewTicker(l.m.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			if !l.renew() {
				return
			}
		}
	}
}

// renew re-reads the lease to confirm ownership, then rewrites it with a
// bumped sequence via temp-file + rename. A foreign owner in the file means
// the lease was stolen: mark lost and stop heartbeating — never rename over
// a thief. I/O errors are tolerated silently: a renewal that keeps failing
// simply lets the lease age toward being stolen, which is the correct
// degradation.
func (l *Lease) renew() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.lost {
		return false
	}
	if data, err := l.m.cfg.FS.ReadFile(l.path); err == nil {
		if rec, perr := parseRecord(data); perr == nil && rec.Owner != l.rec.Owner {
			l.lost = true
			l.m.note(&l.m.stats.Lost)
			l.m.emit("lost", l.key, l.rec.Seq)
			return false
		}
	}
	l.rec.Seq++
	l.rec.HB = time.Now().UnixNano()
	data, err := json.Marshal(l.rec)
	if err != nil {
		return true
	}
	data = append(data, '\n')
	tmp := l.m.tmpPath(l.path)
	if err := l.m.cfg.FS.WriteFile(tmp, data, 0o644); err != nil {
		return true
	}
	if err := l.m.cfg.FS.Rename(tmp, l.path); err != nil {
		l.m.cfg.FS.Remove(tmp)
		return true
	}
	l.m.emit("renew", l.key, l.rec.Seq)
	return true
}

// Release stops the heartbeat and removes the lease file if it is still
// ours. Call it after the cell's outcome is committed to the cache, so a
// waiter that sees the lease vanish finds the entry on its next poll.
func (l *Lease) Release() {
	close(l.stop)
	<-l.done

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.lost {
		return
	}
	// Confirm the file is still our incarnation before removing: unlinking a
	// thief's live lease would re-open the very race the lease exists to
	// close.
	if data, err := l.m.cfg.FS.ReadFile(l.path); err == nil {
		if rec, perr := parseRecord(data); perr == nil && rec.Owner != l.rec.Owner {
			l.lost = true
			l.m.note(&l.m.stats.Lost)
			l.m.emit("lost", l.key, l.rec.Seq)
			return
		}
	}
	l.m.cfg.FS.Remove(l.path)
	l.m.note(&l.m.stats.Released)
	l.m.emit("release", l.key, l.rec.Seq)
}

// SweepStats summarizes a Sweep pass.
type SweepStats struct {
	Live  int // leases with a fresh heartbeat, left in place
	Swept int // stale or unparseable leases removed
}

// Sweep removes lease files whose writer-clock heartbeat is older than
// staleAfter (<= 0 selects DefaultStale), plus any that do not parse; live
// leases are untouched. It is the offline janitor behind `o2kbench
// -cache-verify`: after a chaos run every killed worker's leases linger, and
// this is what reclaims them. Unlike the online steal path, Sweep compares
// the embedded timestamp against the local clock — it runs on the same
// machine as the workers (the cache directory is the coordination substrate),
// where that comparison is sound.
func Sweep(dir string, fsys diskcache.FS, staleAfter time.Duration) (SweepStats, error) {
	if fsys == nil {
		fsys = diskcache.OSFS{}
	}
	if staleAfter <= 0 {
		staleAfter = DefaultStale
	}
	var st SweepStats
	shards, err := fsys.ReadDir(dir)
	if err != nil {
		return st, fmt.Errorf("lease: sweep %s: %w", dir, err)
	}
	now := time.Now()
	for _, sh := range shards {
		if !sh.IsDir() || len(sh.Name()) != 2 {
			continue
		}
		files, err := fsys.ReadDir(filepath.Join(dir, sh.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			name := f.Name()
			if f.IsDir() || !strings.HasSuffix(name, ".lease") {
				continue
			}
			key := strings.TrimSuffix(name, ".lease")
			if !diskcache.ValidKey(key) {
				continue
			}
			path := diskcache.SidecarPath(dir, key, ".lease")
			data, err := fsys.ReadFile(path)
			if err != nil {
				continue
			}
			rec, perr := parseRecord(data)
			if perr == nil && now.Sub(time.Unix(0, rec.HB)) <= staleAfter {
				st.Live++
				continue
			}
			if fsys.Remove(path) == nil {
				st.Swept++
			}
		}
	}
	return st, nil
}
