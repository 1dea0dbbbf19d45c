// Package diskcache is the crash-safe persistent half of the runner's cell
// cache: a content-addressed store mapping a cell's core.CellKey to the
// opaque payload of its computed value, shared by every o2kbench
// invocation and CI verdict job that points at the same directory.
//
// The store is built around one invariant — a broken cache may slow a run
// down, but it can never change the run's bytes or fail it (DESIGN.md §5.8).
// Three mechanisms enforce it:
//
//   - atomic commits: an entry is written to a temp file in the same
//     directory and renamed into place, so a crash (even SIGKILL) at any
//     instant leaves either the old entry, the new entry, or no entry —
//     never a half-written one that parses;
//   - per-entry integrity: each entry records a SHA-256 checksum of its
//     payload plus the key it claims to answer for; torn writes, bit rot,
//     and misfiled entries are detected on read, counted as corruption,
//     evicted, and reported as misses;
//   - a version fence: entries carry the schema identifier and a
//     binary fingerprint (Fingerprint); entries written by a different
//     schema or binary are stale, never trusted, and evicted on contact.
//
// Every failure path — open error, read error, parse error, checksum
// mismatch, fence skew — degrades to a miss and bumps a counter that
// runner.Report surfaces under `o2kbench -runreport`. The FS seam (see FS
// and FaultFS) lets tests inject each of those failures deterministically.
package diskcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
)

// Schema identifies the on-disk entry format. Bump it when the envelope or
// payload encoding changes incompatibly; old entries then read as stale and
// are recomputed.
//
// v2 split the entry into a one-line header followed by the raw payload
// bytes, so a warm read is one parse of a tiny header plus one checksum pass
// over the payload, and payloads need not be text at all. v3 keeps that
// split and writes the header as four space-separated fields instead of a
// JSON object, so neither Get nor Put goes through encoding/json. v4 is
// v3's envelope around the fixed-size metrics record (core/record.go), so a
// v3 entry, whose record may carry a map, reads as stale. v5 drops the
// outcome frame ("v\n" before a value, "e\n" before a failure): a failure is
// never stored, so the payload is the codec's bytes verbatim, and a v4 entry
// reads as stale.
const Schema = "o2k-cellcache/v5"

// header is the first line of an entry file: integrity and identity metadata
// for the payload bytes that follow the newline, written as
//
//	<schema> <fence> <key> <sum>\n
//
// where sum is the SHA-256 hex of the payload. No field contains a space or
// a newline (the schema is a constant, the others are hex), so the first
// '\n' in the file is always the separator.
type header struct {
	Schema, Fence, Key, Sum string
}

// legacySchema stands in for the schema of an entry whose header is a JSON
// object: one written by a v1 or v2 binary. It never equals Schema, so such
// an entry is stale, not corrupt.
const legacySchema = "json"

// appendEntry appends h's header line and payload to dst, in the layout
// parseEntry reads.
func appendEntry(dst []byte, h header, payload []byte) []byte {
	for i, f := range [...]string{h.Schema, h.Fence, h.Key, h.Sum} {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, f...)
	}
	dst = append(dst, '\n')
	return append(dst, payload...)
}

// parseEntry splits an entry file into its header and the payload bytes
// (aliasing data, not copying). A header line that is a JSON object yields
// legacySchema; any other line that is not four non-empty space-separated
// fields is an error.
func parseEntry(data []byte) (h header, payload []byte, err error) {
	line, payload, ok := bytes.Cut(data, []byte{'\n'})
	if !ok {
		return h, nil, errors.New("diskcache: entry has no header line")
	}
	if len(line) > 0 && line[0] == '{' {
		return header{Schema: legacySchema}, payload, nil
	}
	f := bytes.Split(line, []byte{' '})
	if len(f) != 4 {
		return h, nil, errors.New("diskcache: header is not four fields")
	}
	for _, x := range f {
		if len(x) == 0 {
			return h, nil, errors.New("diskcache: header has an empty field")
		}
	}
	return header{Schema: string(f[0]), Fence: string(f[1]), Key: string(f[2]), Sum: string(f[3])}, payload, nil
}

// Counters is a snapshot of the cache's degradation telemetry. Every Get
// increments exactly one of Hits/Misses; the remaining counters classify
// why a miss happened or what maintenance was performed.
type Counters struct {
	Hits     int64 `json:"hits"`      // entries served intact
	Misses   int64 `json:"misses"`    // absent, unreadable, stale, or corrupt
	Corrupt  int64 `json:"corrupt"`   // integrity failures: parse, checksum, key mismatch
	Stale    int64 `json:"stale"`     // schema/fingerprint fence mismatches
	Evicted  int64 `json:"evicted"`   // entry files removed (corrupt, stale, cleared)
	PutErrs  int64 `json:"put_errs"`  // failed writes (entry not committed)
	ReadErrs int64 `json:"read_errs"` // I/O errors on read (distinct from absent)
}

// String renders the counters for the -runreport table.
func (c Counters) String() string {
	s := fmt.Sprintf("hits=%d misses=%d corrupt=%d stale=%d evicted=%d",
		c.Hits, c.Misses, c.Corrupt, c.Stale, c.Evicted)
	if c.PutErrs > 0 || c.ReadErrs > 0 {
		s += fmt.Sprintf(" put_errs=%d read_errs=%d", c.PutErrs, c.ReadErrs)
	}
	return s
}

// Cache is a content-addressed store of cell outcomes under one directory.
// It is safe for concurrent use by one or more processes sharing the
// directory: entries are immutable once committed, commits are atomic
// renames, and two writers racing on one key commit identical bytes (the
// simulator is deterministic), so last-rename-wins is harmless.
type Cache struct {
	dir   string
	fence string
	fs    FS

	hits, misses, corrupt, stale, evicted, putErrs, readErrs atomic.Int64
}

// tmpSeq disambiguates temp files process-wide: two Cache instances over one
// directory (one per engine, say) would collide on a per-Cache counter, since
// the pid in the temp name no longer tells them apart.
var tmpSeq atomic.Int64

// Option configures Open.
type Option func(*Cache)

// WithFS substitutes the filesystem implementation (fault injection).
func WithFS(f FS) Option { return func(c *Cache) { c.fs = f } }

// WithFingerprint overrides the binary fingerprint half of the version
// fence. Tests use it to simulate version skew; production callers should
// let Fingerprint() be derived from the running binary.
func WithFingerprint(fp string) Option { return func(c *Cache) { c.fence = fp } }

// Open returns a Cache rooted at dir, creating the directory if needed.
func Open(dir string, opts ...Option) (*Cache, error) {
	c := &Cache{dir: dir, fence: Fingerprint(), fs: OSFS{}}
	for _, o := range opts {
		o(c)
	}
	if err := c.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: open %s: %w", dir, err)
	}
	return c, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// Fence returns the active version fence (schema + binary fingerprint).
func (c *Cache) Fence() string { return c.fence }

// Fingerprint derives the binary half of the version fence from the running
// executable: Go version, main module path/version, and VCS revision when
// the build recorded one. Two processes built from the same source share a
// fingerprint; a rebuild from different source (when VCS stamping is
// available) does not. The fence is best-effort — builds without VCS
// stamping (go test, go run) fall back to the module identity, so after a
// model change in a dev tree, clear the cache (or rely on the golden-output
// tests, which catch any drift).
func Fingerprint() string {
	parts := []string{Schema, runtime.Version()}
	if bi, ok := debug.ReadBuildInfo(); ok {
		parts = append(parts, bi.Main.Path, bi.Main.Version, bi.Main.Sum)
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" || s.Key == "vcs.modified" {
				parts = append(parts, s.Key+"="+s.Value)
			}
		}
	}
	sum := sha256.Sum256([]byte(strings.Join(parts, "\x00")))
	return hex.EncodeToString(sum[:8])
}

// ValidKey screens a cell key before it is used as a path component: CellKey
// produces fixed-width lowercase hex, and anything else (a doctored file
// name, a caller bug) must not escape the cache directory. The lease
// subsystem applies the same screen to its sidecar files.
func ValidKey(key string) bool {
	if len(key) != 32 {
		return false
	}
	for i := 0; i < len(key); i++ {
		b := key[i]
		if (b < '0' || b > '9') && (b < 'a' || b > 'f') {
			return false
		}
	}
	return true
}

// SidecarPath places a key-scoped sidecar file (extension including the dot,
// e.g. ".lease") in the same two-character shard directory as the key's
// entry, so everything about one cell lives together and directory listings
// stay bounded. key must satisfy ValidKey.
func SidecarPath(dir, key, ext string) string {
	return filepath.Join(dir, key[:2], key+ext)
}

// path returns the entry file for key: <dir>/<key[:2]>/<key>.cell.
func (c *Cache) path(key string) string {
	return SidecarPath(c.dir, key, ".cell")
}

// Get returns the stored payload for key, or ok=false on a miss. Every
// failure — absent entry, I/O error, unparseable envelope, checksum
// mismatch, key mismatch, schema or fingerprint skew — is a miss; damaged
// and stale entries are evicted so the rerun that recomputes them can
// rewrite them cleanly.
func (c *Cache) Get(key string) (payload []byte, ok bool) {
	if !ValidKey(key) {
		c.misses.Add(1)
		return nil, false
	}
	data, err := c.fs.ReadFile(c.path(key))
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			c.readErrs.Add(1)
		}
		c.misses.Add(1)
		return nil, false
	}
	payload, state := c.check(key, data)
	switch state {
	case entryOK:
		c.hits.Add(1)
		return payload, true
	case entryStale:
		c.stale.Add(1)
	default:
		c.corrupt.Add(1)
	}
	c.misses.Add(1)
	c.evict(key)
	return nil, false
}

// entryState is what an entry file's bytes are worth to this cache.
type entryState int

const (
	entryOK      entryState = iota
	entryStale              // another schema or binary wrote it: the fence rejects it
	entryCorrupt            // unparseable, misfiled, or failing its checksum
)

// check classifies data as key's entry file, for Get and Verify alike: fence
// skew is stale, any other failure corrupt. On entryOK the payload aliases
// data.
func (c *Cache) check(key string, data []byte) ([]byte, entryState) {
	h, payload, err := parseEntry(data)
	switch {
	case err != nil:
		return nil, entryCorrupt
	case h.Schema != Schema, h.Fence != c.fence:
		return nil, entryStale
	case h.Key != key, !sumOK(h, payload):
		return nil, entryCorrupt
	}
	return payload, entryOK
}

func sumOK(h header, payload []byte) bool {
	sum := sha256.Sum256(payload)
	return h.Sum == hex.EncodeToString(sum[:])
}

// evict best-effort removes key's entry file.
func (c *Cache) evict(key string) {
	if c.fs.Remove(c.path(key)) == nil {
		c.evicted.Add(1)
	}
}

// Invalidate reclassifies key's last Get as corrupt and evicts the entry.
// The runner calls it when the envelope verified but the payload failed to
// decode into the cell's type — damage the envelope checksum cannot see
// (e.g. an entry written under a colliding key by a buggy codec).
func (c *Cache) Invalidate(key string) {
	if !ValidKey(key) {
		return
	}
	c.hits.Add(-1)
	c.corrupt.Add(1)
	c.misses.Add(1)
	c.evict(key)
}

// Put atomically commits payload as key's entry: format the checksummed
// header, write header + '\n' + payload to a temp file in the entry's shard
// directory, and rename it into place. On any error the entry is untouched,
// the temp file is removed best-effort, and PutErrs is bumped — a failed Put
// never leaves a partial entry for a later Get to trust.
func (c *Cache) Put(key string, payload []byte) error {
	if !ValidKey(key) {
		c.putErrs.Add(1)
		return fmt.Errorf("diskcache: malformed key %q", key)
	}
	sum := sha256.Sum256(payload)
	h := header{Schema: Schema, Fence: c.fence, Key: key, Sum: hex.EncodeToString(sum[:])}
	data := appendEntry(nil, h, payload)
	dst := c.path(key)
	if err := c.fs.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		c.putErrs.Add(1)
		return fmt.Errorf("diskcache: put %s: %w", key, err)
	}
	tmp := fmt.Sprintf("%s.tmp.%d.%d", dst, os.Getpid(), tmpSeq.Add(1))
	if err := c.fs.WriteFile(tmp, data, 0o644); err != nil {
		c.putErrs.Add(1)
		c.fs.Remove(tmp)
		return fmt.Errorf("diskcache: put %s: %w", key, err)
	}
	if err := c.fs.Rename(tmp, dst); err != nil {
		c.putErrs.Add(1)
		c.fs.Remove(tmp)
		return fmt.Errorf("diskcache: commit %s: %w", key, err)
	}
	return nil
}

// Counters snapshots the degradation telemetry.
func (c *Cache) Counters() Counters {
	return Counters{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Corrupt:  c.corrupt.Load(),
		Stale:    c.stale.Load(),
		Evicted:  c.evicted.Load(),
		PutErrs:  c.putErrs.Load(),
		ReadErrs: c.readErrs.Load(),
	}
}

// VerifyStats summarizes a Verify scan.
type VerifyStats struct {
	Checked int // entry files examined
	Bad     int // entries that failed validation (and were removed)
	Stale   int // of Bad, entries rejected only by the version fence
	Tmp     int // orphaned temp files swept (interrupted or killed commits)
	Leases  int // lease files no process held, swept
	Live    int // lease files a running process holds, left in place
}

// Verify scans every entry under the cache root, validates each the way Get
// does, and removes the ones that fail — the offline counterpart of Get's
// on-contact eviction, behind `o2kbench -cache-verify`. In the same walk it
// sweeps orphaned temp files from interrupted or SIGKILLed commits (they
// were never entries) and every lease file no process holds (sweepLease).
// The scan itself is read-only on valid entries and held leases.
func (c *Cache) Verify() (VerifyStats, error) {
	var st VerifyStats
	err := c.walk(func(path, key string, kind fileKind) {
		switch kind {
		case fileTmp:
			if c.fs.Remove(path) == nil {
				st.Tmp++
			}
			return
		case fileLease:
			switch err := c.sweepLease(path); {
			case err == nil:
				st.Leases++
			case errors.Is(err, ErrLocked):
				st.Live++
			}
			return
		}
		st.Checked++
		state := entryCorrupt
		if data, err := c.fs.ReadFile(path); err == nil {
			_, state = c.check(key, data)
		}
		if state != entryOK {
			st.Bad++
			if state == entryStale {
				st.Stale++
			}
			c.fs.Remove(path)
		}
	})
	return st, err
}

// Clear removes every entry, stray temp file and unheld lease file under the
// cache root and returns how many entry files were deleted. A held lease
// stays: removing it would let a second process lock a fresh file of the
// same name while the holder still computes the cell.
func (c *Cache) Clear() (int, error) {
	removed := 0
	err := c.walk(func(path, key string, kind fileKind) {
		switch {
		case kind == fileLease:
			c.sweepLease(path)
		case c.fs.Remove(path) == nil && kind == fileEntry:
			removed++
			c.evicted.Add(1)
		}
	})
	return removed, err
}

// sweepLease removes the lease file at path unless a process holds it, in
// which case it answers ErrLocked: the one rule for deleting a lease file
// (internal/runner/lease). It takes the lock the way an acquirer does, so it
// never removes a live holder's file, and removes the file before unlocking
// it, as a holder's Release does. It reads no timestamps.
func (c *Cache) sweepLease(path string) error {
	unlock, err := c.fs.Lock(path)
	if err != nil {
		return err
	}
	defer unlock()
	return c.fs.Remove(path)
}

// Len counts committed entries on disk.
func (c *Cache) Len() (int, error) {
	n := 0
	err := c.walk(func(path, key string, kind fileKind) {
		if kind == fileEntry {
			n++
		}
	})
	return n, err
}

// fileKind classifies what a file under a shard directory is.
type fileKind int

const (
	fileEntry fileKind = iota // <key>.cell — a committed entry
	fileLease                 // <key>.lease — a lease sidecar (see internal/runner/lease)
	fileTmp                   // anything else — an uncommitted temp file
)

// walk visits every file under the cache's shard directories, reporting its
// path, the key its name claims (entries and leases), and its kind.
func (c *Cache) walk(visit func(path, key string, kind fileKind)) error {
	shards, err := c.fs.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("diskcache: scan %s: %w", c.dir, err)
	}
	for _, sh := range shards {
		if !sh.IsDir() || len(sh.Name()) != 2 {
			continue
		}
		files, err := c.fs.ReadDir(filepath.Join(c.dir, sh.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if f.IsDir() {
				continue
			}
			name := f.Name()
			path := filepath.Join(c.dir, sh.Name(), name)
			if key, ok := strings.CutSuffix(name, ".cell"); ok && ValidKey(key) {
				visit(path, key, fileEntry)
			} else if key, ok := strings.CutSuffix(name, ".lease"); ok && ValidKey(key) {
				visit(path, key, fileLease)
			} else {
				visit(path, "", fileTmp)
			}
		}
	}
	return nil
}
