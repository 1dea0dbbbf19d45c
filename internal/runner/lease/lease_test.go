package lease

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

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

// fastCfg returns a Config tuned so steals happen in tens of milliseconds
// instead of seconds. Grace: -1 disables shard deference (Config normalizes
// negatives to zero).
func fastCfg(dir, owner string) Config {
	return Config{
		Dir:       dir,
		Owner:     owner,
		Heartbeat: 5 * time.Millisecond,
		Stale:     50 * time.Millisecond,
		Poll:      5 * time.Millisecond,
		Grace:     -1,
		Seed:      1,
	}
}

func TestAcquireConflictRelease(t *testing.T) {
	dir := t.TempDir()
	a := New(fastCfg(dir, "host:1:aaaaaaaa"))
	b := New(fastCfg(dir, "host:2:bbbbbbbb"))
	k := key("conflict")

	la, st := a.Acquire(k)
	if st != Acquired || la == nil {
		t.Fatalf("first acquire = %v, want Acquired", st)
	}
	if _, st := b.Acquire(k); st != Busy {
		t.Fatalf("acquire of a held lease = %v, want Busy", st)
	}
	la.Release()
	if la.lost { // Release has stopped the heartbeat, the only other writer
		t.Fatal("uncontested lease reports Lost")
	}
	lb, st := b.Acquire(k)
	if st != Acquired {
		t.Fatalf("acquire after release = %v, want Acquired", st)
	}
	lb.Release()

	as, bs := a.Stats(), b.Stats()
	if as.Acquired != 1 || as.Released != 1 || as.Stolen != 0 {
		t.Fatalf("owner stats = %+v", as)
	}
	if bs.Busy != 1 || bs.Acquired != 1 || bs.Stolen != 0 {
		t.Fatalf("waiter stats = %+v", bs)
	}
}

// writeDeadLease plants a lease file as a SIGKILLed foreign worker would
// leave it: a valid record that will never heartbeat again.
func writeDeadLease(t *testing.T, dir, k string, hb time.Time) {
	t.Helper()
	rec := record{Key: k, Owner: "otherhost:99:deadbeef", Seq: 7, HB: hb.UnixNano()}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	path := diskcache.SidecarPath(dir, k, ".lease")
	if err := os.MkdirAll(dir+"/"+k[:2], 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestStealFromDeadOwner(t *testing.T) {
	dir := t.TempDir()
	k := key("orphaned")
	writeDeadLease(t, dir, k, time.Now())

	m := New(fastCfg(dir, "host:3:cccccccc"))
	deadline := time.Now().Add(10 * time.Second)
	sawBusy := false
	for {
		l, st := m.Acquire(k)
		switch st {
		case Acquired:
			if !sawBusy {
				t.Fatal("stole a fresh lease without ever observing it as Busy")
			}
			if s := m.Stats(); s.Stolen != 1 {
				t.Fatalf("stats = %+v, want exactly one steal", s)
			}
			l.Release()
			return
		case Busy:
			sawBusy = true
		default:
			t.Fatalf("acquire of an orphaned lease degraded: %v", st)
		}
		if time.Now().After(deadline) {
			t.Fatal("dead owner's lease never became stealable")
		}
		time.Sleep(m.PollInterval())
	}
}

func TestCorruptLeaseReplaced(t *testing.T) {
	dir := t.TempDir()
	k := key("corrupt")
	path := diskcache.SidecarPath(dir, k, ".lease")
	if err := os.MkdirAll(dir+"/"+k[:2], 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("not a lease record"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := New(fastCfg(dir, "host:4:dddddddd"))
	l, st := m.Acquire(k)
	if st != Acquired {
		t.Fatalf("acquire over a corrupt lease = %v, want Acquired (replace garbage)", st)
	}
	l.Release()
}

func TestLeasePathFaultsDegrade(t *testing.T) {
	boom := errors.New("injected")
	cases := []struct {
		name string
		arm  func(f *diskcache.FaultFS)
	}{
		{"read", func(f *diskcache.FaultFS) { f.FailReads(boom) }},
		{"write", func(f *diskcache.FaultFS) { f.FailWrites(boom) }},
		{"link", func(f *diskcache.FaultFS) { f.FailLinks(boom) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ffs := diskcache.NewFaultFS(nil)
			ffs.MatchPath(".lease")
			tc.arm(ffs)
			cfg := fastCfg(t.TempDir(), "host:5:eeeeeeee")
			cfg.FS = ffs
			m := New(cfg)
			if l, st := m.Acquire(key("faulted-" + tc.name)); st != Degraded || l != nil {
				t.Fatalf("acquire under %s fault = %v, want Degraded (compute anyway)", tc.name, st)
			}
			if s := m.Stats(); s.Degraded != 1 {
				t.Fatalf("stats = %+v, want one Degraded", s)
			}
		})
	}
}

func TestRenewRenameFaultTolerated(t *testing.T) {
	ffs := diskcache.NewFaultFS(nil)
	ffs.MatchPath(".lease")
	cfg := fastCfg(t.TempDir(), "host:6:ffffffff")
	cfg.FS = ffs
	m := New(cfg)
	l, st := m.Acquire(key("renew-faulted"))
	if st != Acquired {
		t.Fatalf("acquire = %v", st)
	}
	// Renewals now lose every rename; the lease must keep working (it just
	// stops aging forward, drifting toward stealable — the designed decay).
	ffs.FailRenames(errors.New("injected"))
	time.Sleep(10 * cfg.Heartbeat)
	ffs.FailRenames(nil)
	l.Release()
	if s := m.Stats(); s.Released != 1 || s.Lost != 0 {
		t.Fatalf("stats = %+v, want a clean release despite renew faults", s)
	}
}

func TestInvalidKeyDegrades(t *testing.T) {
	m := New(fastCfg(t.TempDir(), "host:7:00000001"))
	if _, st := m.Acquire("../../evil"); st != Degraded {
		t.Fatalf("acquire of invalid key = %v, want Degraded", st)
	}
}

func TestShardOf(t *testing.T) {
	if shardOf(key("x"), 1) != 0 || shardOf(key("x"), 0) != 0 {
		t.Fatal("degenerate shard counts must map to 0")
	}
	counts := make([]int, 4)
	for i := 0; i < 256; i++ {
		s := shardOf(key(fmt.Sprintf("cell-%d", i)), 4)
		if s < 0 || s >= 4 {
			t.Fatalf("shardOf out of range: %d", s)
		}
		counts[s]++
	}
	for s, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d got none of 256 keys — hash not spreading (%v)", s, counts)
		}
	}
}

func TestShardDeferenceThenCover(t *testing.T) {
	dir := t.TempDir()
	cfg := fastCfg(dir, "host:8:00000002")
	cfg.Shards = 2
	cfg.Grace = 40 * time.Millisecond
	// Pick a key owned by the *other* shard.
	var k string
	for i := 0; ; i++ {
		k = key(fmt.Sprintf("foreign-%d", i))
		if shardOf(k, 2) != cfg.Shard {
			break
		}
	}
	m := New(cfg)
	if _, st := m.Acquire(k); st != Busy {
		t.Fatalf("first acquire of a free foreign-shard key = %v, want Busy (deference)", st)
	}
	time.Sleep(cfg.Grace + 10*time.Millisecond)
	l, st := m.Acquire(k)
	if st != Acquired {
		t.Fatalf("acquire after the grace window = %v, want Acquired (cover the dead peer)", st)
	}
	l.Release()
}

func TestSweep(t *testing.T) {
	dir := t.TempDir()
	kStale, kLive, kJunk := key("stale"), key("live"), key("junk")
	writeDeadLease(t, dir, kStale, time.Now().Add(-time.Minute))
	writeDeadLease(t, dir, kLive, time.Now())
	junkPath := diskcache.SidecarPath(dir, kJunk, ".lease")
	if err := os.MkdirAll(dir+"/"+kJunk[:2], 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(junkPath, []byte("???"), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := Sweep(dir, nil, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Swept != 2 || st.Live != 1 {
		t.Fatalf("sweep = %+v, want 2 swept (stale + junk), 1 live", st)
	}
	if _, err := os.Stat(diskcache.SidecarPath(dir, kStale, ".lease")); !os.IsNotExist(err) {
		t.Fatal("stale lease survived the sweep")
	}
	if _, err := os.Stat(diskcache.SidecarPath(dir, kLive, ".lease")); err != nil {
		t.Fatal("live lease was swept")
	}
}
