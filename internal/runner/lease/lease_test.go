package lease

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"o2k/internal/runner/diskcache"
)

// key returns a syntactically valid cell key (32 lowercase hex chars)
// derived from s.
func key(s string) string {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return fmt.Sprintf("%032x", h)
}

func TestAcquireConflictRelease(t *testing.T) {
	dir := t.TempDir()
	a := New(Config{Dir: dir})
	b := New(Config{Dir: dir})
	k := key("conflict")

	la, st := a.Acquire(k)
	if st != Acquired || la == nil {
		t.Fatalf("first acquire = %v, want Acquired", st)
	}
	if _, st := b.Acquire(k); st != Busy {
		t.Fatalf("acquire of a held lease = %v, want Busy", st)
	}
	la.Release()
	if _, err := os.Stat(la.path); !os.IsNotExist(err) {
		t.Fatalf("released lease file still exists (stat: %v)", err)
	}
	lb, st := b.Acquire(k)
	if st != Acquired {
		t.Fatalf("acquire after release = %v, want Acquired", st)
	}
	lb.Release()

	if s := a.Stats(); s != (Stats{Acquired: 1, Released: 1}) {
		t.Fatalf("owner stats = %+v", s)
	}
	if s := b.Stats(); s != (Stats{Acquired: 1, Busy: 1, Released: 1}) {
		t.Fatalf("waiter stats = %+v", s)
	}
}

// plant writes data as k's lease file, the way a worker leaves it when it
// dies between creating the file and unlinking it.
func plant(t *testing.T, dir, k string, data []byte) string {
	t.Helper()
	path := diskcache.SidecarPath(dir, k, ".lease")
	if err := os.MkdirAll(dir+"/"+k[:2], 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// A lease file nobody holds a lock on is free, whatever it holds: its owner
// died (the kernel closed its descriptor, dropping the lock) or it is junk.
// Either way the first Acquire takes it, with no Busy and no waiting.
func TestDeadOwnerFreesLeaseAtOnce(t *testing.T) {
	t.Run("killed-holder", func(t *testing.T) {
		dir := t.TempDir()
		k := key("orphaned")
		dead, _ := New(Config{Dir: dir}).Acquire(k)
		if dead == nil {
			t.Fatal("first holder could not acquire")
		}
		dead.unlock() // what SIGKILL does: the descriptor closes, no Release
		m := New(Config{Dir: dir})
		l, st := m.Acquire(k)
		if st != Acquired {
			t.Fatalf("acquire after the holder died = %v, want Acquired", st)
		}
		l.Release()
	})
	t.Run("junk", func(t *testing.T) {
		dir := t.TempDir()
		k := key("corrupt")
		plant(t, dir, k, []byte("not a lease record"))
		m := New(Config{Dir: dir})
		l, st := m.Acquire(k)
		if st != Acquired {
			t.Fatalf("acquire over a junk lease file = %v, want Acquired", st)
		}
		l.Release()
		if s := m.Stats(); s.Busy != 0 {
			t.Fatalf("stats = %+v, want no Busy", s)
		}
	})
}

func TestLeasePathFaultsDegrade(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"lock", errors.New("injected")},
		{"unsupported", errors.ErrUnsupported}, // a platform without flock
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ffs := diskcache.NewFaultFS(nil)
			ffs.MatchPath(".lease")
			ffs.FailLocks(tc.err)
			m := New(Config{Dir: t.TempDir(), FS: ffs})
			if l, st := m.Acquire(key("faulted-" + tc.name)); st != Degraded || l != nil {
				t.Fatalf("acquire under %s fault = %v, want Degraded (compute anyway)", tc.name, st)
			}
			if s := m.Stats(); s.Degraded != 1 || ffs.Locks() != 1 {
				t.Fatalf("stats = %+v after %d lock(s), want one Degraded after one", s, ffs.Locks())
			}
		})
	}
}

func TestInvalidKeyDegrades(t *testing.T) {
	m := New(Config{Dir: t.TempDir()})
	if _, st := m.Acquire("../../evil"); st != Degraded {
		t.Fatalf("acquire of invalid key = %v, want Degraded", st)
	}
}
