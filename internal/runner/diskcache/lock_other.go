//go:build !(darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd)

package diskcache

import "errors"

// No flock here: every lease degrades to computing without exclusion, which
// costs duplicate work and never changes a byte.
func (OSFS) Lock(string) (func(), error) { return nil, errors.ErrUnsupported }
