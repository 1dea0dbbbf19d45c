package diskcache

import (
	"os"
	"strings"
	"sync"

	"io/fs"
)

// FaultFS wraps an FS and injects failures on demand. It is the test rig
// behind the cache's graceful-degradation guarantees (DESIGN.md §5.8):
// every knob models one real-world failure, and the cache must treat all of
// them as misses — never as fatal errors, never as trusted data.
//
// Knobs are safe to flip concurrently with cache traffic; the zero value
// (over a nil Inner) injects nothing and behaves like OSFS.
type FaultFS struct {
	Inner FS // nil means OSFS{}

	mu sync.Mutex

	readErr   error // returned by every ReadFile
	writeErr  error // returned by every WriteFile
	renameErr error // returned by every Rename
	lockErr   error // returned by every Lock

	truncateAt int    // keep only the first N bytes of written files (-1 = off)
	flipBitAt  int    // XOR bit 0 of byte N (clamped) of every file read (-1 = off)
	match      string // restrict injected faults to paths containing this ("" = all)

	reads, writes, renames, locks int64
}

// NewFaultFS returns a FaultFS over inner (OSFS if nil) with no faults armed.
func NewFaultFS(inner FS) *FaultFS {
	if inner == nil {
		inner = OSFS{}
	}
	return &FaultFS{Inner: inner, truncateAt: -1, flipBitAt: -1}
}

// FailReads arms (or, with nil, disarms) an error on every ReadFile.
func (f *FaultFS) FailReads(err error) { f.mu.Lock(); f.readErr = err; f.mu.Unlock() }

// FailWrites arms (or disarms) an error on every WriteFile.
func (f *FaultFS) FailWrites(err error) { f.mu.Lock(); f.writeErr = err; f.mu.Unlock() }

// FailRenames arms (or disarms) an error on every Rename — the torn-commit
// case: the temp file is written but never becomes the entry.
func (f *FaultFS) FailRenames(err error) { f.mu.Lock(); f.renameErr = err; f.mu.Unlock() }

// FailLocks arms (or disarms) an error on every Lock — the lost-acquisition
// case: a lease's lock cannot be taken (e.g. a platform without flock),
// which the lease layer must degrade to computing anyway.
func (f *FaultFS) FailLocks(err error) { f.mu.Lock(); f.lockErr = err; f.mu.Unlock() }

// MatchPath restricts every armed fault to paths containing substr — e.g.
// ".lease" faults only the lease files while cache entries stay healthy.
// "" (the default) faults every path.
func (f *FaultFS) MatchPath(substr string) { f.mu.Lock(); f.match = substr; f.mu.Unlock() }

// matches reports whether faults apply to name. Callers hold f.mu.
func (f *FaultFS) matches(name string) bool {
	return f.match == "" || strings.Contains(name, f.match)
}

// TruncateWritesAt keeps only the first n bytes of every subsequent write,
// modelling a torn write / full disk. n < 0 disarms.
func (f *FaultFS) TruncateWritesAt(n int) { f.mu.Lock(); f.truncateAt = n; f.mu.Unlock() }

// FlipBitOnRead XORs one bit of byte n (clamped to the file) of every
// subsequent read, modelling silent bit rot. n < 0 disarms.
func (f *FaultFS) FlipBitOnRead(n int) { f.mu.Lock(); f.flipBitAt = n; f.mu.Unlock() }

// Ops reports how many reads, writes, and renames reached the FaultFS.
func (f *FaultFS) Ops() (reads, writes, renames int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reads, f.writes, f.renames
}

// Locks reports how many Lock calls reached the FaultFS.
func (f *FaultFS) Locks() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.locks
}

func (f *FaultFS) inner() FS {
	if f.Inner == nil {
		return OSFS{}
	}
	return f.Inner
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	return f.inner().MkdirAll(path, perm)
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	f.reads++
	rerr, flip := f.readErr, f.flipBitAt
	if !f.matches(name) {
		rerr, flip = nil, -1
	}
	f.mu.Unlock()
	if rerr != nil {
		return nil, rerr
	}
	data, err := f.inner().ReadFile(name)
	if err == nil && flip >= 0 && len(data) > 0 {
		data = append([]byte(nil), data...)
		i := flip
		if i >= len(data) {
			i = len(data) - 1
		}
		data[i] ^= 1
	}
	return data, err
}

func (f *FaultFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	f.mu.Lock()
	f.writes++
	werr, trunc := f.writeErr, f.truncateAt
	if !f.matches(name) {
		werr, trunc = nil, -1
	}
	f.mu.Unlock()
	if werr != nil {
		return werr
	}
	if trunc >= 0 && trunc < len(data) {
		data = data[:trunc]
	}
	return f.inner().WriteFile(name, data, perm)
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	f.renames++
	rerr := f.renameErr
	if !f.matches(newpath) {
		rerr = nil
	}
	f.mu.Unlock()
	if rerr != nil {
		return rerr
	}
	return f.inner().Rename(oldpath, newpath)
}

func (f *FaultFS) Lock(name string) (func(), error) {
	f.mu.Lock()
	f.locks++
	lerr := f.lockErr
	if !f.matches(name) {
		lerr = nil
	}
	f.mu.Unlock()
	if lerr != nil {
		return nil, lerr
	}
	return f.inner().Lock(name)
}

func (f *FaultFS) Remove(name string) error { return f.inner().Remove(name) }

func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) { return f.inner().ReadDir(name) }
