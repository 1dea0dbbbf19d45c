package diskcache

import (
	"errors"
	"io/fs"
	"os"
)

// FS is the slice of the filesystem the cache uses. It exists so the
// fault-injection layer (FaultFS) can sit between the cache and the OS and
// exercise every degradation path — I/O errors, torn writes, bit rot,
// failed renames — deterministically in tests. The default implementation
// is the real filesystem (OSFS).
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadDir(name string) ([]fs.DirEntry, error)
	// Lock creates name if needed and takes an exclusive, non-blocking lock
	// on it, held until unlock is called or the holding process exits. It
	// fails with ErrLocked while another open of the file holds the lock, or
	// when the file it locked is no longer the one name names. The lease
	// subsystem (internal/runner/lease) is built on it.
	Lock(name string) (unlock func(), err error)
}

// ErrLocked is Lock's answer when another holder has the lock.
var ErrLocked = errors.New("diskcache: locked by another holder")

// OSFS is the passthrough FS backed by the os package.
type OSFS struct{}

func (OSFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (OSFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (OSFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (OSFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (OSFS) Remove(name string) error                   { return os.Remove(name) }
func (OSFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
