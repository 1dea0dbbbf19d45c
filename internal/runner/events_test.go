package runner

import (
	"context"
	"encoding/json"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
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

// A request hook set inside another composes with it: the inner and the
// outer hook both receive every event of the request, the dependency its
// Prepare requested included.
func TestNestedRequestHooksBothSeeEveryEvent(t *testing.T) {
	e := New(2)
	var prepares atomic.Int32
	run := dependent(e, "run", &prepares, Cell{Key: "dep", Label: "dep", Prepare: Ready(value(1))})
	outer, inner := &eventLog{}, &eventLog{}
	ctx := WithRequestHook(WithRequestHook(context.Background(), outer.hook), inner.hook)
	for range 2 { // the computes, then a memo hit
		if _, err := e.DoCell(ctx, run); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"dep compute", "run compute", "run memo-hit"}
	for name, log := range map[string]*eventLog{"outer": outer, "inner": inner} {
		var got []string
		for _, ev := range log.evs {
			got = append(got, ev.Key+" "+ev.Kind.String())
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s hook saw %v, want %v", name, got, want)
		}
	}
}

// The failure ledger holds one entry per failed cell key — labels repeat,
// so two failed cells under one label are two entries — lists them by
// label, then key, and leaves the hook it composes with seeing every event.
func TestTrackFailuresKeysByCellKey(t *testing.T) {
	e := New(2)
	outer := &eventLog{}
	ctx, failed := TrackFailures(WithRequestHook(context.Background(), outer.hook))
	do := func(key, label string, err error) {
		e.DoCell(ctx, Cell{Key: key, Label: label, Prepare: Ready(func(context.Context) (any, error) { return 1, err })})
	}
	boom := errors.New("boom")
	do("k3", "mesh MP P=16", boom)
	do("k1", "mesh MP P=16", boom)
	do("k0", "n-body MP P=16", boom)
	do("k2", "cg MP P=16", nil)
	do("k1", "mesh MP P=16", boom) // a memo hit of a failed cell: no new entry
	// A Prepare stage that fails on its own, with no failed dependency.
	e.DoCell(ctx, Cell{Key: "k4", Label: "cg plan", Prepare: func(context.Context) (Compute, error) { return nil, boom }})

	var got []string
	for _, ev := range failed() {
		got = append(got, ev.Key)
	}
	if want := []string{"k4", "k1", "k3", "k0"}; !slices.Equal(got, want) {
		t.Fatalf("ledger lists %v, want %v", got, want)
	}
	if len(outer.evs) != 6 {
		t.Fatalf("outer hook saw %d events, want all 6", len(outer.evs))
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
