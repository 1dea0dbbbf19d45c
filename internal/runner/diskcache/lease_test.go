package diskcache_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"o2k/internal/runner/diskcache"
	"o2k/internal/runner/lease"
)

// leaseKey returns a valid cell key derived from s.
func leaseKey(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:16])
}

// plantLease writes k's lease file with no holder: what a SIGKILLed worker
// leaves behind (the kernel dropped its lock, not its file), or junk.
func plantLease(t *testing.T, dir, k string, data []byte) string {
	t.Helper()
	path := diskcache.SidecarPath(dir, k, ".lease")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSweep drives the one rule for deleting a lease file through both
// maintenance passes: Verify and Clear remove a lease file only when they
// can take its lock, so a dead and a junk lease go, and a held lease stays
// live through both — another manager still finds its key Busy.
func TestSweep(t *testing.T) {
	dir := t.TempDir()
	c, err := diskcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hk := leaseKey("held")
	held, st := lease.New(lease.Config{Dir: dir}).Acquire(hk)
	if st != lease.Acquired {
		t.Fatalf("acquire = %v, want Acquired", st)
	}
	defer held.Release()
	heldPath := diskcache.SidecarPath(dir, hk, ".lease")

	gone := func(pass string, paths ...string) {
		t.Helper()
		for _, p := range paths {
			if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("%s left the unheld lease file %s (stat: %v)", pass, p, err)
			}
		}
		if _, err := os.Stat(heldPath); err != nil {
			t.Fatalf("%s removed the held lease file: %v", pass, err)
		}
	}

	dead := plantLease(t, dir, leaseKey("dead"), nil)
	junk := plantLease(t, dir, leaseKey("junk"), []byte("???"))
	vs, err := c.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if vs != (diskcache.VerifyStats{Leases: 2, Live: 1}) {
		t.Fatalf("verify = %+v, want 2 leases swept (dead + junk), 1 live", vs)
	}
	gone("Verify", dead, junk)

	dead = plantLease(t, dir, leaseKey("dead"), nil)
	if _, err := c.Clear(); err != nil {
		t.Fatal(err)
	}
	if _, st := lease.New(lease.Config{Dir: dir}).Acquire(hk); st != lease.Busy {
		t.Fatalf("a second manager's acquire of a held key after Clear = %v, want Busy", st)
	}
	gone("Clear", dead)
}
