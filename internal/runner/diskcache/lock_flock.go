//go:build darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd

package diskcache

import (
	"errors"
	"io/fs"
	"os"
	"syscall"
)

// Lock is flock(2) on an O_CREATE open of name. The lock belongs to the open
// file description, so two opens in one process exclude each other, and the
// kernel drops it the moment the holder exits, SIGKILL included.
func (OSFS) Lock(name string) (func(), error) {
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, ErrLocked
		}
		return nil, err
	}
	// A holder unlinks the file before it unlocks, so the lock just taken may
	// be on a file no path names any more: the lock that counts is the one on
	// whatever name names now.
	held, err := f.Stat()
	if err == nil {
		var named os.FileInfo
		named, err = os.Stat(name)
		if errors.Is(err, fs.ErrNotExist) || err == nil && !os.SameFile(held, named) {
			err = ErrLocked
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return func() { f.Close() }, nil
}
