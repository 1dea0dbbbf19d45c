//go:build !unix

package numa

import "errors"

// No demand-zero mapping here: every array is backed by make.
func osMap(int) ([]byte, error) { return nil, errors.ErrUnsupported }

func osUnmap([]byte) error { return nil }
