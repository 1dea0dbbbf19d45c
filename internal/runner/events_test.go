package runner

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"o2k/internal/core"
)

// eventLog is a minimal concurrent-safe hook for tests.
type eventLog struct {
	mu  sync.Mutex
	evs []Event
}

func (l *eventLog) hook(ev Event) {
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

func (l *eventLog) byKind(k EventKind) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	for _, ev := range l.evs {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

func TestHookComputeAndMemoHit(t *testing.T) {
	log := &eventLog{}
	e := New(2)
	e.SetHook(log.hook)
	compute := func(context.Context) (any, error) {
		time.Sleep(time.Millisecond)
		return 42, nil
	}
	if _, err := e.Do("k1", "cell one", compute); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Do("k1", "cell one", compute); err != nil {
		t.Fatal(err)
	}
	comps := log.byKind(EventCompute)
	if len(comps) != 1 {
		t.Fatalf("got %d compute events, want 1: %+v", len(comps), comps)
	}
	c := comps[0]
	if c.Key != "k1" || c.Label != "cell one" || c.Err != "" {
		t.Fatalf("compute event = %+v", c)
	}
	if c.Start.IsZero() || c.Dur < time.Millisecond {
		t.Fatalf("compute span not timed: start=%v dur=%v", c.Start, c.Dur)
	}
	hits := log.byKind(EventMemoHit)
	if len(hits) != 1 || hits[0].Key != "k1" {
		t.Fatalf("got memo hits %+v, want exactly one for k1", hits)
	}
}

func TestHookDedupSpan(t *testing.T) {
	log := &eventLog{}
	e := New(2)
	e.SetHook(log.hook)
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		e.Do("k", "slow", func(context.Context) (any, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	go func() {
		defer wg.Done()
		<-started
		e.Do("k", "slow", func(context.Context) (any, error) { return 1, nil })
	}()
	// Give the second requester time to block on the in-flight owner, then
	// let the owner finish.
	<-started
	time.Sleep(5 * time.Millisecond)
	close(release)
	wg.Wait()
	dedups := log.byKind(EventDedup)
	if len(dedups) != 1 {
		t.Fatalf("got %d dedup events, want 1", len(dedups))
	}
	if dedups[0].Dur <= 0 {
		t.Fatalf("dedup wait has no duration: %+v", dedups[0])
	}
}

// A failed compute is one compute event carrying the failure; nothing is
// retried, so nothing else fires.
func TestHookFailure(t *testing.T) {
	log := &eventLog{}
	e := New(1)
	e.SetHook(log.hook)
	calls := 0
	_, err := e.Do("k", "failing cell", func(context.Context) (any, error) {
		calls++
		return nil, errors.New("boom")
	})
	if err == nil || calls != 1 {
		t.Fatalf("err = %v after %d computes, want the failure after 1", err, calls)
	}
	comps := log.byKind(EventCompute)
	if len(comps) != 1 || comps[0].Err != "boom" || len(log.evs) != 1 {
		t.Fatalf("events = %+v, want one compute event carrying the failure", log.evs)
	}
}

func TestHookDiskHit(t *testing.T) {
	dir := t.TempDir()
	codec := &Codec{
		Encode: func(v any) ([]byte, error) { return json.Marshal(v.(string)) },
		Decode: func(b []byte) (any, error) {
			var s string
			err := json.Unmarshal(b, &s)
			return s, err
		},
	}
	compute := func(context.Context) (any, error) { return "payload", nil }
	key := core.CellKey("test/hook-disk", 1)

	warm := cachedEngine(t, dir)
	if _, err := warm.DoCached(key, "cached cell", codec, compute); err != nil {
		t.Fatal(err)
	}

	log := &eventLog{}
	e := cachedEngine(t, dir)
	e.SetHook(log.hook)
	v, err := e.DoCached(key, "cached cell", codec, compute)
	if err != nil || v != "payload" {
		t.Fatalf("DoCached = %v, %v", v, err)
	}
	if n := len(log.byKind(EventCompute)); n != 0 {
		t.Fatalf("disk-served cell emitted %d compute events", n)
	}
	hits := log.byKind(EventDiskHit)
	if len(hits) != 1 || hits[0].Label != "cached cell" {
		t.Fatalf("disk hits = %+v, want one for the cached cell", hits)
	}
}

// Kind names are part of the trace-file contract (they become Chrome event
// categories); pin them.
func TestEventKindNames(t *testing.T) {
	want := map[EventKind]string{
		EventCompute: "compute", EventMemoHit: "memo-hit", EventDedup: "dedup",
		EventDiskHit: "disk-hit",
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), name)
		}
	}
}
